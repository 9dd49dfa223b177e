"""Decodability closure, validity reports, and exhaustive code search."""

import time

import pytest

import picod.verifier
from picod.coding import LinearCode, build_partition_scheme, gf_rref, optimal_partition
from picod.errors import CapExceeded
from picod.instance import Instance, build_complete_s
from picod.verifier import (
    decodable_closure,
    gaussian_binomial,
    induced_assignment,
    is_valid,
    iter_row_spaces,
    min_linear_length_exhaustive,
)
from util import brute_closure, brute_code_valid, random_instance, seeded


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
            assert decodable_closure(code, known) == want

    def test_no_rows_decodes_nothing(self):
        code = LinearCode(2, 3, ())
        assert decodable_closure(code, frozenset()) == frozenset()

    def test_full_knowledge_decodes_nothing_new(self):
        code = LinearCode(2, 2, ((1, 1),))
        assert decodable_closure(code, frozenset({0, 1})) == frozenset()

    def test_iteration_unlocks_chains(self):
        # row 2 alone is useless until row 1 reveals message 1
        code = LinearCode(2, 3, ((1, 0, 0), (1, 1, 1)))
        assert decodable_closure(code, frozenset({2})) == frozenset({0, 1})

    def test_known_outside_range_rejected(self):
        with pytest.raises(ValueError):
            decodable_closure(LinearCode(2, 2, ()), frozenset({2}))

    def test_monotone_in_side_information(self):
        rng = seeded(22)
        for _ in range(40):
            q = rng.choice([2, 3])
            m = rng.randint(2, 5)
            code = _random_code(rng, q, m, rng.randint(1, 3))
            small = frozenset(rng.sample(range(m), rng.randint(0, m - 1)))
            extra = frozenset(rng.sample(range(m), rng.randint(0, m)))
            big = small | extra
            got_small = decodable_closure(code, small) | small
            got_big = decodable_closure(code, big) | big
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
            closed = known | decodable_closure(code, known)
            assert decodable_closure(code, closed) == frozenset()


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
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(3, 2, 2) == 7
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(2, 1, 3) == 4
        assert gaussian_binomial(3, 0, 2) == 1
        assert gaussian_binomial(2, 3, 2) == 0

    @pytest.mark.parametrize("m,ell,q", [(3, 1, 2), (3, 2, 2), (4, 2, 2), (2, 1, 3), (3, 3, 2)])
    def test_enumeration_is_canonical_and_complete(self, m, ell, q):
        seen = set()
        for rows in iter_row_spaces(m, ell, q):
            assert len(rows) == ell
            echelon, _ = gf_rref(rows, q)
            assert echelon == rows
            seen.add(rows)
        assert len(seen) == gaussian_binomial(m, ell, q)

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

    def test_space_cap(self):
        inst = Instance(m=25, t=1, users=(frozenset(),))
        with pytest.raises(CapExceeded):
            min_linear_length_exhaustive(inst, q=2)

    def test_matches_raw_matrix_enumeration(self):
        from util import brute_min_linear_ell

        rng = seeded(26)
        for _ in range(6):
            inst = random_instance(rng, m_max=3, n_max=4, t=1)
            want = brute_min_linear_ell(inst, 2, 2)
            found = min_linear_length_exhaustive(inst, q=2, ell_max=2)
            got = None if found is None else found[0]
            assert got == want
