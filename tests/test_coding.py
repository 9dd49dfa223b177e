"""Field arithmetic, code containers, and partition schemes."""

import itertools

import pytest

from picod.coding import (
    LinearCode,
    build_partition_scheme,
    gf_rref,
    is_prime,
    mds_rows,
    optimal_partition,
    smallest_prime_at_least,
    unit_rows,
)
from picod.errors import FieldTooSmall
from util import brute_best_partition_cost, brute_in_span, seeded


def rank(rows, q):
    return len(gf_rref(rows, q)[0])


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
    def test_rref_hand_case_gf2(self):
        rows, pivots = gf_rref([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2)
        assert rows == ((1, 0, 1), (0, 1, 1))
        assert pivots == (0, 1)

    def test_rref_hand_case_gf3(self):
        rows, pivots = gf_rref([[2, 1], [1, 1]], 3)
        assert rows == ((1, 0), (0, 1))
        assert pivots == (0, 1)
        # det = 2*2 - 1*1 = 3 vanishes mod 3
        assert rank([[2, 1], [1, 2]], 3) == 1

    def test_rref_zero_and_empty(self):
        assert gf_rref([], 2) == ((), ())
        assert gf_rref([[0, 0]], 5) == ((), ())

    def test_rref_idempotent(self):
        rng = seeded(3)
        for _ in range(40):
            q = rng.choice([2, 3, 5])
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(3)]
            once, piv = gf_rref(rows, q)
            again = gf_rref(once, q)
            assert again == (once, piv) or not once

    def test_rank_bounds_and_row_shuffle(self):
        rng = seeded(4)
        for _ in range(40):
            q = rng.choice([2, 3])
            rows = [[rng.randrange(q) for _ in range(3)] for _ in range(4)]
            r = rank(rows, q)
            assert 0 <= r <= 3
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert rank(shuffled, q) == r

    def test_in_span_matches_enumeration(self):
        rng = seeded(5)
        for _ in range(60):
            q = rng.choice([2, 3])
            m = rng.randint(1, 4)
            rows = [[rng.randrange(q) for _ in range(m)] for _ in range(rng.randint(1, 3))]
            vec = [rng.randrange(q) for _ in range(m)]
            in_span = rank(rows + [vec], q) == rank(rows, q)
            assert in_span == brute_in_span(vec, rows, q)

    def test_unreduced_entries_are_taken_mod_q(self):
        # gf_rref eliminates on a reduced copy, so negative and oversized
        # ints mean their residues, and the caller's rows stay untouched
        rng = seeded(6)
        for _ in range(40):
            q = rng.choice([2, 3, 5])
            raw = [[rng.randint(-2 * q, 2 * q) for _ in range(3)] for _ in range(3)]
            before = [row[:] for row in raw]
            reduced = [[x % q for x in row] for row in raw]
            assert gf_rref(raw, q) == gf_rref(reduced, q)
            assert raw == before
            in_span = rank(raw, q) == rank(raw[1:], q)
            assert in_span == brute_in_span(reduced[0], reduced[1:], q)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            gf_rref([[1, 0], [1]], 2)

    def test_non_prime_field_rejected(self):
        with pytest.raises(ValueError):
            gf_rref([[1]], 4)


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

    def test_construction_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            LinearCode(2, 2, ((0, 2),))
        with pytest.raises(ValueError):
            LinearCode(2, 2, ((1,),))
        with pytest.raises(ValueError):
            LinearCode(6, 2, ())


class TestMatrixBuilders:
    def test_unit_rows(self):
        assert unit_rows(2, 3) == [[1, 0, 0], [0, 1, 0]]
        with pytest.raises(ValueError):
            unit_rows(4, 3)

    @pytest.mark.parametrize("q,m", [(5, 4), (5, 5), (7, 6), (3, 3)])
    def test_mds_every_minor_invertible(self, q, m):
        for k in range(1, m + 1):
            rows = mds_rows(k, m, q)
            assert len(rows) == k and all(len(r) == m for r in rows)
            for cols in itertools.combinations(range(m), k):
                minor = [[row[c] for c in cols] for row in rows]
                assert not _brute_singular(minor, q), (k, cols)

    @pytest.mark.parametrize(
        "k,m,q",
        [(4, 10, 11), (4, 11, 11), (4, 12, 13), (4, 13, 13), (4, 14, 17), (5, 14, 17), (3, 12, 13)],
    )
    def test_mds_built_blocks_every_minor_invertible(self, k, m, q):
        # mds_rows does not check its minors at run time; these are the
        # blocks the partition schemes build, checked here once
        rows = mds_rows(k, m, q)
        for cols in itertools.combinations(range(m), k):
            assert rank([[row[c] for c in cols] for row in rows], q) == k, cols

    def test_mds_needs_large_field(self):
        with pytest.raises(FieldTooSmall):
            mds_rows(2, 4, 3)


def _brute_singular(matrix, q):
    """Square matrix is singular iff some non-zero combo of rows vanishes."""
    k = len(matrix)
    width = len(matrix[0])
    for coeffs in itertools.product(range(q), repeat=k):
        if not any(coeffs):
            continue
        combo = [sum(c * row[j] for c, row in zip(coeffs, matrix)) % q for j in range(width)]
        if not any(combo):
            return True
    return False


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

    def test_matches_brute_force_over_all_set_partitions(self):
        rng = seeded(9)
        for _ in range(60):
            m = rng.randint(2, 10)
            t = rng.randint(1, min(3, m))
            pool = list(range(0, m - t + 1))
            sizes = frozenset(rng.sample(pool, min(len(pool), rng.randint(1, 5))))
            plan = optimal_partition(m, t, sizes)
            assert plan.total_cost == brute_best_partition_cost(m, t, sizes)

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

    def test_explicit_field_respected(self):
        plan = optimal_partition(5, 1, {0, 2, 4})
        code = build_partition_scheme(plan, q=7)
        assert code.q == 7
        assert code.ell == 4
