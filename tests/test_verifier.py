"""Decodability closure, validity reports, and exhaustive code search."""

import time
from functools import reduce
from itertools import combinations

import pytest

import picod.bounds
import picod.verifier
from picod.bounds import best_chain_bound, mais, min_mais_lower_bound
from picod.coding import LinearCode, build_partition_scheme, optimal_partition
from picod.errors import SearchOverflow
from picod.hypergraph import has_one_factor, network_topology
from picod.instance import Instance, build_complete_s
from picod.verifier import (
    decodable_closure,
    induced_assignment,
    is_valid,
    min_linear_length_exhaustive,
)
from util import (
    brute_closure,
    brute_code_valid,
    brute_row_space_count,
    iter_row_spaces,
    random_instance,
    seeded,
)


def _mask(known):
    """Side information as the int mask `decodable_closure` takes."""
    return sum(1 << x for x in known)


def closure(code, known):
    """`decodable_closure` on a set of known messages."""
    return decodable_closure(code, _mask(known))


def _random_code(rng, q, m, ell):
    rows = tuple(
        tuple(rng.randrange(q) for _ in range(m)) for _ in range(ell)
    )
    return LinearCode(q, m, rows)


class TestClosure:
    def test_matches_enumeration(self):
        rng = seeded(21)
        for _ in range(60):
            q = rng.choice([2, 3])
            m = rng.randint(2, 5)
            code = _random_code(rng, q, m, rng.randint(0, 3))
            known = frozenset(rng.sample(range(m), rng.randint(0, m)))
            want = brute_closure(q, code.rows, m, known) - known
            assert closure(code, known) == want

    def test_no_rows_decodes_nothing(self):
        code = LinearCode(2, 3, ())
        assert closure(code, frozenset()) == frozenset()

    def test_full_knowledge_decodes_nothing_new(self):
        code = LinearCode(2, 2, ((1, 1),))
        assert closure(code, frozenset({0, 1})) == frozenset()

    def test_iteration_unlocks_chains(self):
        # row 2 alone is useless until row 1 reveals message 1
        code = LinearCode(2, 3, ((1, 0, 0), (1, 1, 1)))
        assert closure(code, frozenset({2})) == frozenset({0, 1})

    def test_known_outside_range_rejected(self):
        with pytest.raises(ValueError):
            decodable_closure(LinearCode(2, 2, ()), 0b100)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("known", [1 << 3, 1 << 4, 0b1001, 1 << 40, -1, -(1 << 3)])
    def test_mask_outside_columns_rejected(self, q, known):
        # bit m or above names no message, and a negative int has infinitely
        # many set bits; neither may pass as side information
        code = LinearCode(q, 3, ((1, 1, 0),))
        with pytest.raises(ValueError, match="outside column range"):
            decodable_closure(code, known)

    def test_full_mask_is_in_range(self):
        assert decodable_closure(LinearCode(3, 3, ((1, 2, 0),)), 0b111) == frozenset()
        assert decodable_closure(LinearCode(2, 0, ()), 0) == frozenset()

    def test_support_key_matches_full_mask(self):
        # `_closures` passes `mask & support`, not the user's whole mask:
        # columns outside the support are zero, so both decode the same
        rng = seeded(27)
        for q in (2, 3, 5):
            for _ in range(40):
                m = rng.randint(1, 6 if q == 2 else 4)
                zero = set(rng.sample(range(m), rng.randint(0, m - 1)))
                rows = tuple(
                    tuple(0 if c in zero else rng.randrange(q) for c in range(m))
                    for _ in range(rng.randint(0, 3))
                )
                code = LinearCode(q, m, rows)
                support = reduce(int.__or__, code.masks, 0)
                known = frozenset(rng.sample(range(m), rng.randint(0, m)))
                mask = _mask(known)
                want = brute_closure(q, rows, m, known) - known
                assert decodable_closure(code, mask & support) == want, (q, rows, known)
                assert decodable_closure(code, mask) == want, (q, rows, known)

    def test_monotone_in_side_information(self):
        rng = seeded(22)
        for _ in range(40):
            q = rng.choice([2, 3])
            m = rng.randint(2, 5)
            code = _random_code(rng, q, m, rng.randint(1, 3))
            small = frozenset(rng.sample(range(m), rng.randint(0, m - 1)))
            extra = frozenset(rng.sample(range(m), rng.randint(0, m)))
            big = small | extra
            got_small = closure(code, small) | small
            got_big = closure(code, big) | big
            assert got_small <= got_big

    def test_fixpoint_is_exhausted(self):
        # the property that makes one elimination exact: the closure of a
        # closed set is empty, so no second pass can decode anything
        rng = seeded(23)
        for _ in range(40):
            q = rng.choice([2, 3, 5])
            m = rng.randint(2, 7)
            code = _random_code(rng, q, m, rng.randint(1, 3))
            known = frozenset(rng.sample(range(m), rng.randint(0, m)))
            closed = known | closure(code, known)
            assert closure(code, closed) == frozenset()


def _scalar_multiples(a, b, q):
    """Nonzero rows a and b with a = f * b for some nonzero f."""
    return any(a) and any(tuple(f * x % q for x in b) == a for f in range(1, q))


class TestReducedBasis:
    def test_matches_enumeration_over_every_field(self):
        # one pivot-keyed reduction serves every field; zero rows, scalar
        # multiples, zero columns and leading entries other than 1 are the
        # cases where a row kernel can slip
        rng = seeded(26)
        for q, m_max, ell_max, trials in [(2, 9, 6, 200), (3, 5, 4, 150), (5, 4, 3, 80)]:
            seen = {"zero row": 0, "scalar multiple": 0, "zero column": 0, "leading entry not 1": 0}
            for _ in range(trials):
                m, ell = rng.randint(1, m_max), rng.randint(0, ell_max)
                zero_cols = set(rng.sample(range(m), rng.randint(0, m // 2)))
                rows = [
                    tuple(0 if c in zero_cols else rng.randrange(q) for c in range(m))
                    for _ in range(ell)
                ]
                if ell and rng.random() < 0.3:
                    rows[rng.randrange(ell)] = (0,) * m
                if ell >= 2 and rng.random() < 0.4:
                    i, j, f = *rng.sample(range(ell), 2), rng.randrange(1, q)
                    rows[i] = tuple(f * x % q for x in rows[j])
                code = LinearCode(q, m, tuple(rows))
                seen["zero row"] += (0,) * m in rows
                seen["scalar multiple"] += any(
                    _scalar_multiples(a, b, q) for i, a in enumerate(rows) for b in rows[:i]
                )
                seen["zero column"] += any(not any(col) for col in zip(*rows))
                seen["leading entry not 1"] += any(next((x for x in r if x), 1) != 1 for r in rows)
                known = frozenset(rng.sample(range(m), rng.randint(0, m)))
                got = closure(code, known)
                assert got == brute_closure(q, code.rows, m, known) - known, (q, rows, known)
            if q == 2:
                del seen["leading entry not 1"]
            assert min(seen.values()) >= trials // 6, (q, seen)


class TestIsValid:
    def test_two_row_code_serves_three_users(self):
        inst = build_complete_s(3, 1, {1})
        code = LinearCode(2, 3, ((1, 1, 0), (0, 1, 1)))
        report = is_valid(code, inst)
        assert report.valid
        for user in report.per_user:
            assert user.decoded == frozenset(range(3)) - user.known

    def test_plain_unit_row_misses_its_holder(self):
        inst = build_complete_s(2, 1, {1})
        code = LinearCode(2, 2, ((1, 0),))
        report = is_valid(code, inst)
        assert not report.valid
        assert report.per_user[0].decoded == frozenset()
        assert report.per_user[1].decoded == frozenset({0})

    def test_width_mismatch_rejected(self):
        inst = build_complete_s(3, 1, {1})
        with pytest.raises(ValueError):
            is_valid(LinearCode(2, 4, ()), inst)

    def test_matches_enumeration(self):
        rng = seeded(24)
        for _ in range(40):
            inst = random_instance(rng, m_max=4, n_max=5, t=rng.randint(1, 2))
            q = rng.choice([2, 3])
            code = _random_code(rng, q, inst.m, rng.randint(0, 2))
            assert is_valid(code, inst).valid == brute_code_valid(q, code.rows, inst)

    @pytest.mark.parametrize("bad", [5, -1])
    def test_known_outside_range_rejected_for_every_user(self, bad):
        # user 1 would share user 0's pattern on the support column, so the
        # memo never looks at its stray message: construction refuses it
        with pytest.raises(ValueError, match=r"invalid instance \(user 2\): side information outside"):
            Instance(3, 1, (frozenset({0}), frozenset({0, bad})))

    def test_shared_patterns_match_enumeration(self):
        # zero columns make users with different side information share a
        # `known & support` pattern; each must still get its own decoded set
        rng = seeded(25)
        shared = 0
        for _ in range(60):
            q = rng.choice([2, 3, 5])
            inst = random_instance(rng, m_max={2: 6, 3: 5, 5: 4}[q], n_max=8, t=1)
            m = inst.m
            zero = set(rng.sample(range(m), rng.randint(1, m - 1)))
            rows = tuple(
                tuple(0 if c in zero else rng.randrange(q) for c in range(m))
                for _ in range(rng.randint(1, 3))
            )
            code = LinearCode(q, m, rows)
            report = is_valid(code, inst)
            for a, user in zip(inst.users, report.per_user):
                assert user.known == a
                assert user.decoded == brute_closure(q, rows, m, a) - a
            distinct = set(inst.users)
            shared += len({a - zero for a in distinct}) < len(distinct)
        assert shared >= 20

    def test_one_elimination_per_support_pattern(self, monkeypatch):
        # the partition code sends 7 unit rows, so 6006 users fall into
        # 2^7 - 1 patterns: no user of size <= 6 holds all 7 sent messages
        inst = build_complete_s(14, 1, {4, 5, 6})
        code = build_partition_scheme(optimal_partition(14, 1, {4, 5, 6}))
        calls = []
        real = picod.verifier.decodable_closure

        def counted(code, known):
            calls.append(known)
            return real(code, known)

        monkeypatch.setattr(picod.verifier, "decodable_closure", counted)
        start = time.perf_counter()
        report = is_valid(code, inst)
        elapsed = time.perf_counter() - start
        assert inst.n == 6006 and report.valid
        assert len(calls) == 127
        assert elapsed < 1.0

    def test_report_json_is_one_based(self):
        inst = build_complete_s(2, 1, {0})
        code = LinearCode(2, 2, ((1, 0),))
        obj = is_valid(code, inst).wire()
        assert obj == {"valid": True, "per_user": [{"A": [], "B": [1]}]}


class TestInducedAssignment:
    def test_picks_lexicographically_smallest(self):
        inst = build_complete_s(3, 1, {1})
        code = LinearCode(2, 3, ((1, 1, 0), (0, 1, 1)))
        got = induced_assignment(code, inst)
        # every user decodes both missing messages, so the smaller one wins
        assert got == (frozenset({1}), frozenset({0}), frozenset({0}))

    def test_requires_validity(self):
        inst = build_complete_s(2, 1, {1})
        with pytest.raises(ValueError):
            induced_assignment(LinearCode(2, 2, ((1, 0),)), inst)

    def test_fits_instance(self):
        inst = build_complete_s(4, 2, {0, 1})
        found = min_linear_length_exhaustive(inst, q=2)
        assert found is not None
        _, code = found
        for a, d in zip(inst.users, induced_assignment(code, inst)):
            assert len(d) == 2 and not (d & a)


class TestRowSpaces:
    def test_gaussian_binomial_values(self):
        # the number of ell-dimensional subspaces of GF(q)^m, by hand
        for m, ell, q, count in [
            (3, 1, 2, 7), (3, 2, 2, 7), (4, 2, 2, 35), (2, 1, 3, 4), (3, 0, 2, 1), (2, 3, 2, 0),
        ]:
            assert len(list(iter_row_spaces(m, ell, q))) == count, (m, ell, q)

    @pytest.mark.parametrize("m,ell,q", [(3, 1, 2), (3, 2, 2), (4, 2, 2), (2, 1, 3), (3, 3, 2)])
    def test_enumeration_is_canonical_and_complete(self, m, ell, q):
        seen = set()
        for rows in iter_row_spaces(m, ell, q):
            assert len(rows) == ell
            # reduced echelon: leading 1s move right, each alone in its column
            pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
            assert pivots == sorted(set(pivots))
            for p in pivots:
                assert [r[p] for r in rows] == [int(p == c) for c in pivots]
            seen.add(rows)
        assert len(seen) == brute_row_space_count(m, ell, q)

    def test_dimension_zero(self):
        assert list(iter_row_spaces(3, 0, 2)) == [()]


class TestMinLinearLength:
    def test_three_user_instance_needs_two_rows(self):
        inst = build_complete_s(3, 1, {1})
        found = min_linear_length_exhaustive(inst, q=2)
        assert found is not None
        ell, code = found
        assert ell == 2
        assert is_valid(code, inst).valid

    def test_single_empty_user_needs_one_row(self):
        inst = build_complete_s(2, 1, {0})
        found = min_linear_length_exhaustive(inst, q=2)
        assert found is not None and found[0] == 1

    def test_no_users_needs_nothing(self):
        inst = Instance(m=2, t=1, users=())
        assert min_linear_length_exhaustive(inst, q=2) == (0, LinearCode(2, 2, ()))

    def test_ell_max_cutoff(self):
        inst = build_complete_s(3, 1, {1})
        assert min_linear_length_exhaustive(inst, q=2, ell_max=1) is None

    @pytest.mark.parametrize("bad", [5, -1])
    def test_known_outside_range_rejected(self, bad):
        # user 1 would share user 0's pattern on every one-row code that
        # satisfies user 0, so the search never sees its stray message:
        # construction refuses it
        with pytest.raises(ValueError, match=r"invalid instance \(user 2\): side information outside"):
            Instance(3, 1, (frozenset({0}), frozenset({0, bad})))

    def test_node_cap_counts_candidate_codes(self):
        # not complete-S, so columns follow reduced echelon order, pivot
        # first.  A node is one placed column.  Users {0}, {1}, {2} lack
        # message 3 and are checked at column 3; {0, 3} at column 2.  The
        # empty code fails {0, 3} at column 2 (3 nodes).  At length 1 the
        # first column is e_0 or 0; each subtree places 11 columns before a
        # check fails, as no one-row code serves everyone (22 nodes).  The
        # first two-row code, e_0 and e_1, places its 4 columns: 3 + 22 + 4
        inst = Instance(4, 1, (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 3})))
        with pytest.raises(SearchOverflow) as info:
            min_linear_length_exhaustive(inst, q=2, node_cap=28)
        assert info.value.proven == 2
        assert min_linear_length_exhaustive(inst, q=2, node_cap=29) == (
            2, LinearCode(2, 4, ((1, 0, 0, 0), (0, 1, 0, 0))),
        )

    def test_node_cap_counts_codes_up_to_column_order(self):
        # complete-S, so only [I | P] with nondecreasing P is tried, one
        # placed column per node.  User {3} is checked at column 2, the
        # others at column 3.  The empty code fails {3} at column 2 (3
        # nodes); [1 | P] places 8 columns before every branch fails, as no
        # one-row code serves all of {0}..{3}; the first two-row code,
        # [I_2 | 0] = e_0 and e_1, places its 4 columns: 3 + 8 + 4
        inst = build_complete_s(4, 1, {1})
        with pytest.raises(SearchOverflow) as info:
            min_linear_length_exhaustive(inst, q=2, node_cap=14)
        assert info.value.proven == 2
        assert min_linear_length_exhaustive(inst, q=2, node_cap=15) == (
            2, LinearCode(2, 4, ((1, 0, 0, 0), (0, 1, 0, 0))),
        )

    def test_large_width_is_not_refused_by_size(self):
        # one empty user is complete-S for S = {0}; with {1} added it is
        # not, and GF(2)^25 has about 3.4e7 one-row spaces.  Both users lack
        # message 24, so each code is checked once its 25 columns are
        # placed: the empty code spends 25 nodes and fails, and the first
        # one-row code, e_0, spends 25 more and serves every user
        for users in [(frozenset(),), (frozenset(), frozenset({1}))]:
            inst = Instance(m=25, t=1, users=users)
            found = min_linear_length_exhaustive(inst, q=2, node_cap=50)
            assert found is not None and found[0] == 1
            assert is_valid(found[1], inst).valid

    @pytest.mark.parametrize("q", [2, 3])
    def test_complete_s_matches_every_row_space(self, q):
        # the search up to column order misses no equivalence class: on
        # every complete-S profile with m <= 5 and t <= 2 it finds the
        # length that trying every row space finds.  The reference checks
        # one user at a time and stops at the first unserved one; building
        # each candidate's full is_valid report takes 6x as long
        profiles = [
            (m, t, sizes)
            for m in range(1, 6)
            for t in range(1, min(m, 2) + 1)
            for r in range(1, m - t + 2)
            for sizes in combinations(range(m - t + 1), r)
        ]
        assert len(profiles) == 83

        def serves(rows, inst):
            code = LinearCode(q, inst.m, rows)
            return all(len(decodable_closure(code, k)) >= inst.t for k in inst.masks)

        for m, t, sizes in profiles:
            inst = build_complete_s(m, t, sizes)
            want = next(
                ell
                for ell in range(m + 1)
                if any(serves(rows, inst) for rows in iter_row_spaces(m, ell, q))
            )
            ell, code = min_linear_length_exhaustive(inst, q=q)
            assert (ell, code.ell) == (want, want), (m, t, sizes)

    def test_matches_raw_matrix_enumeration(self):
        # random instances, mostly not complete-S, so the search meets them
        # in echelon column order; the reference tries every q-ary matrix
        from util import brute_min_linear_ell

        rng = seeded(26)
        lengths = []
        for q, m_max in [(2, 4), (3, 3)]:
            for _ in range(16):
                inst = random_instance(rng, m_max=m_max, n_max=4, t=rng.randint(1, 2))
                want = brute_min_linear_ell(inst, q, 2)
                found = min_linear_length_exhaustive(inst, q=q, ell_max=2)
                assert (None if found is None else found[0]) == want, (q, inst)
                assert found is None or is_valid(found[1], inst).valid
                lengths.append(want)
        assert {1, 2, None} <= set(lengths)

    def test_beats_partition_on_alternate_sizes(self):
        # m=9 t=1 S={0,2,4,6,8}: the partition scheme sends 8 rows, and a
        # GF(2) code of 5 serves everyone
        inst = build_complete_s(9, 1, {0, 2, 4, 6, 8})
        assert build_partition_scheme(optimal_partition(9, 1, {0, 2, 4, 6, 8})).ell == 8
        ell, code = min_linear_length_exhaustive(inst, 2)
        assert (ell, code.ell) == (5, 5)
        assert is_valid(code, inst).valid

_SPENT = build_complete_s(4, 1, {1})
_SPENT_CHOICE = tuple(frozenset({min(set(range(4)) - a)}) for a in _SPENT.users)


@pytest.mark.parametrize(
    "search",
    [
        lambda cap: mais(_SPENT, _SPENT_CHOICE, node_cap=cap),
        lambda cap: min_mais_lower_bound(_SPENT, node_cap=cap),
        lambda cap: has_one_factor(network_topology(_SPENT), node_cap=cap),
        lambda cap: min_linear_length_exhaustive(_SPENT, q=2, node_cap=cap),
    ],
    ids=["mais", "min_mais_lower_bound", "has_one_factor", "min_linear_length_exhaustive"],
)
def test_spent_budget_is_not_a_verdict(search):
    # every node_cap search answers with SearchOverflow, never with a value
    # or None, when it may not spend a single node
    with pytest.raises(SearchOverflow):
        search(0)


def test_chain_spends_the_mais_budget(monkeypatch):
    # the chain is read off mais's search, so it spends the same default budget
    monkeypatch.setattr(picod.bounds, "DEFAULT_MAIS_NODE_CAP", 0)
    with pytest.raises(SearchOverflow):
        best_chain_bound(_SPENT, _SPENT_CHOICE)
