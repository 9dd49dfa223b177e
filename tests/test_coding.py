"""Field arithmetic, the reduced basis over GF(q), code containers, and partition schemes."""

import dataclasses
import itertools

import pytest

from picod.coding import (
    LinearCode,
    build_partition_scheme,
    is_prime,
    mds_rows,
    optimal_partition,
    smallest_prime_at_least,
    unit_rows,
)
from picod.verifier import decodable_closure
from util import brute_det, seeded


def closure(code, known):
    """`decodable_closure` on a set of known messages, passed as its mask."""
    return decodable_closure(code, sum(1 << x for x in known))


class TestPrimes:
    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for n in range(-3, 25):
            assert is_prime(n) == (n in primes)

    def test_smallest_prime_at_least(self):
        assert smallest_prime_at_least(1) == 2
        assert smallest_prime_at_least(2) == 2
        assert smallest_prime_at_least(6) == 7
        assert smallest_prime_at_least(14) == 17


class TestLinearAlgebra:
    """The package's one GF(q) kernel is the column insertion behind
    `decodable_closure`; these cases pin it by what it decodes."""

    def test_rref_hand_case_gf2(self):
        # reduced echelon form (1, 0, 1), (0, 1, 1): no unit row until e_2 is known
        code = LinearCode(2, 3, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
        assert closure(code, frozenset()) == frozenset()
        assert closure(code, frozenset({2})) == frozenset({0, 1})

    def test_rref_hand_case_gf3(self):
        assert closure(LinearCode(3, 2, ((2, 1), (1, 1))), frozenset()) == {0, 1}
        # det = 2*2 - 1*1 = 3 vanishes mod 3: rank 1, reduced row (1, 2)
        code = LinearCode(3, 2, ((2, 1), (1, 2)))
        assert closure(code, frozenset()) == frozenset()
        assert closure(code, frozenset({0})) == {1}

    def test_rref_zero_and_empty(self):
        assert closure(LinearCode(5, 2, ()), frozenset()) == frozenset()
        assert closure(LinearCode(5, 2, ((0, 0),)), frozenset()) == frozenset()

    def test_rank_bounds_and_row_shuffle(self):
        # the reduced basis is unique, so neither row order nor a nonzero
        # scale of a row changes what it decodes, and no row decodes two
        rng = seeded(4)
        for _ in range(60):
            q = rng.choice([2, 3, 5])
            m = rng.randint(1, 5)
            rows = [tuple(rng.randrange(q) for _ in range(m)) for _ in range(rng.randint(0, 4))]
            known = frozenset(rng.sample(range(m), rng.randint(0, m)))
            got = closure(LinearCode(q, m, tuple(rows)), known)
            assert len(got) <= len(rows)
            rng.shuffle(rows)
            factors = [rng.randrange(1, q) for _ in rows]
            scaled = tuple(tuple(x * f % q for x in r) for r, f in zip(rows, factors))
            assert closure(LinearCode(q, m, scaled), known) == got

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            LinearCode(2, 2, ((1, 0), (1,)))

    def test_non_prime_field_rejected(self):
        with pytest.raises(ValueError):
            LinearCode(4, 1, ((1,),))


class TestLinearCode:
    def test_wire_format(self):
        code = LinearCode(2, 3, ((1, 1, 0), (0, 1, 1)))
        assert code.wire() == {"q": 2, "rows": [[1, 1, 0], [0, 1, 1]]}

    def test_round_trip(self):
        code = LinearCode(5, 4, ((1, 2, 3, 4), (0, 0, 1, 0)))
        assert LinearCode.from_wire(code.wire()) == code

    def test_zero_row_code_needs_width_hint(self):
        obj = LinearCode(2, 3, ()).wire()
        assert LinearCode.from_wire(obj, m=3) == LinearCode(2, 3, ())
        with pytest.raises(ValueError):
            LinearCode.from_wire(obj)

    def test_masks_are_not_a_field(self):
        read = LinearCode(3, 3, ((1, 2, 0),))
        fresh = LinearCode(3, 3, ((1, 2, 0),))
        wire = fresh.wire()
        assert read == fresh and hash(read) == hash(fresh)
        assert read.wire() == wire == {"q": 3, "rows": [[1, 2, 0]]}
        assert repr(read) == "LinearCode(q=3, m=3, rows=((1, 2, 0),))"
        # replace() re-runs construction, so new rows are checked again
        moved = dataclasses.replace(read, rows=((0, 0, 2), (1, 0, 1)))
        want = LinearCode(3, 3, ((0, 0, 2), (1, 0, 1)))
        assert moved == want and hash(moved) == hash(want) and moved != read
        assert moved.wire() == {"q": 3, "rows": [[0, 0, 2], [1, 0, 1]]}
        with pytest.raises(ValueError):
            dataclasses.replace(read, rows=((0, 3, 0),))

    def test_construction_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            LinearCode(2, 2, ((0, 2),))
        with pytest.raises(ValueError):
            LinearCode(2, 2, ((1,),))
        with pytest.raises(ValueError):
            LinearCode(6, 2, ())

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="negative width"):
            LinearCode(2, -1, ())


class TestMatrixBuilders:
    def test_unit_rows(self):
        assert unit_rows(2, 3) == [[1, 0, 0], [0, 1, 0]]
        with pytest.raises(ValueError):
            unit_rows(4, 3)

    def test_brute_det_hand_cases(self):
        # the minor checks below rest on it: det [[2, 1], [1, 2]] = 3
        assert brute_det([[2, 1], [1, 2]], 3) == 0
        assert brute_det([[2, 1], [1, 2]], 5) == 3
        assert brute_det([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 7) == 6
        assert brute_det([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 5) == 0

    @pytest.mark.parametrize("q,m", [(5, 4), (5, 5), (7, 6), (3, 3)])
    def test_mds_every_minor_invertible(self, q, m):
        for k in range(1, m + 1):
            rows = mds_rows(k, m, q)
            assert len(rows) == k and all(len(r) == m for r in rows)
            for cols in itertools.combinations(range(m), k):
                assert brute_det([[row[c] for c in cols] for row in rows], q), (k, cols)

    @pytest.mark.parametrize(
        "k,m,q",
        [(4, 10, 11), (4, 11, 11), (4, 12, 13), (4, 13, 13), (4, 14, 17), (5, 14, 17), (3, 12, 13)],
    )
    def test_mds_built_blocks_every_minor_invertible(self, k, m, q):
        # mds_rows does not check its minors at run time; these are the
        # blocks the partition schemes build, checked here once
        rows = mds_rows(k, m, q)
        for cols in itertools.combinations(range(m), k):
            assert brute_det([[row[c] for c in cols] for row in rows], q), cols

    @pytest.mark.parametrize("k", [0, 4])
    def test_mds_row_count_out_of_range(self, k):
        with pytest.raises(ValueError, match=f"need 1 <= k <= m, got k={k}, m=3"):
            mds_rows(k, 3, 5)

    def test_mds_needs_large_field(self):
        with pytest.raises(ValueError, match="q=3 < m=4: not enough distinct nodes"):
            mds_rows(2, 4, 3)


def split(m, t, sizes):
    """(uncoded, mds) row counts of the optimal partition plan."""
    plan = optimal_partition(m, t, sizes)
    return plan.uncoded, plan.mds


class TestOptimalPartition:
    def test_prefers_cheaper_strategy(self):
        assert split(5, 1, {0, 2}) == (3, 0)
        assert split(5, 1, {4}) == (0, 1)
        assert split(6, 2, {0}) == (2, 0)
        assert split(6, 1, {4, 5}) == (0, 2)

    def test_tie_goes_uncoded(self):
        # m - min == max + t here
        assert split(5, 1, {2}) == (3, 0)
        assert split(4, 2, {0, 2}) == (4, 0)

    def test_alternating_sizes_split(self):
        assert split(5, 1, {0, 2, 4}) == (3, 1)

    def test_single_size(self):
        for m, t, s in [(5, 1, 2), (6, 2, 1), (7, 1, 6)]:
            plan = optimal_partition(m, t, {s})
            assert plan.total_cost == min(s + t, m - s)
            assert 0 in (plan.uncoded, plan.mds)

    def test_tie_prefers_fewer_parts(self):
        plan = optimal_partition(4, 1, {0, 1, 2, 3})
        assert 0 in (plan.uncoded, plan.mds)
        assert plan.total_cost == 4

    def test_rejects_out_of_range(self):
        for m, t, sizes in [(4, 2, {3}), (3, -1, {0}), (3, 0, {1})]:
            with pytest.raises(ValueError):
                optimal_partition(m, t, sizes)


class TestSchemeAssembly:
    def test_default_field(self):
        assert build_partition_scheme(optimal_partition(6, 1, {0, 1})).q == 2
        assert build_partition_scheme(optimal_partition(6, 1, {5})).q == 7

    def test_row_layout(self):
        plan = optimal_partition(5, 1, {0, 2, 4})
        code = build_partition_scheme(plan)
        assert code.q == 5
        assert code.ell == 4
        assert code.rows[:3] == tuple(tuple(r) for r in unit_rows(3, 5))
        assert code.rows[3] == (1, 1, 1, 1, 1)

    def test_uncoded_only_over_gf2(self):
        plan = optimal_partition(4, 1, {0, 1})
        code = build_partition_scheme(plan)
        assert code.q == 2
        assert code.rows == tuple(tuple(r) for r in unit_rows(2, 4))
