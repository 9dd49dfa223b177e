"""Acyclic-set bound, decoding chains, closed forms, and combined reports."""

import itertools
import json
import time

import pytest

from picod.bounds import (
    ABOVE_MIDDLE,
    BELOW_MIDDLE,
    COMPLEMENT_CONSECUTIVE,
    CONSECUTIVE,
    MAIS_EXACT,
    MAIS_PARTIAL,
    MIDDLE_BAND,
    SINGLETON,
    SMALL_M_TABLE,
    BoundReport,
    best_chain_bound,
    chain_bound,
    closed_form_length,
    full_report,
    mais,
    min_mais_lower_bound,
    small_m_table_rows,
    unicast_expansion,
)
from picod.coding import LinearCode, optimal_partition
from picod.errors import SearchOverflow
from picod.instance import (
    Instance,
    assignment_count,
    build_complete_s,
    enumerate_assignments,
    user_choices,
    validate_assignment,
)
from picod.verifier import is_valid
from util import brute_mais, brute_min_mais, random_assignment, random_instance, seeded


def one_assignment(inst, rng):
    return tuple(frozenset(rng.choice(user_choices(inst, i))) for i in range(inst.n))


def small_random_instance(seed):
    """A random instance, usually not complete-S, whose assignments are few
    enough to enumerate through the brute-force oracle."""
    rng = seeded(seed)
    while True:
        inst = random_instance(rng, m_max=5, n_max=6, t=rng.randint(1, 2))
        if assignment_count(inst) <= 2000:
            return inst


class TestUnicastExpansion:
    def test_splits_each_user(self):
        inst = build_complete_s(4, 2, {1})
        rng = seeded(31)
        d = one_assignment(inst, rng)
        entries = unicast_expansion(inst, d)
        assert len(entries) == 2 * inst.n
        for a, x in entries:
            assert x not in a

    def test_rejects_mismatched_assignment(self):
        inst = build_complete_s(3, 1, {1})
        with pytest.raises(ValueError):
            unicast_expansion(inst, (frozenset({0}),))


class TestMais:
    def test_single_user(self):
        inst = Instance(m=3, t=1, users=(frozenset({0}),))
        assert mais(inst, (frozenset({1}),)) == 1

    def test_three_user_mimicking_chain(self):
        inst = build_complete_s(3, 1, {1})
        d = (frozenset({1}), frozenset({0}), frozenset({0}))
        assert mais(inst, d) == 2

    def test_every_assignment_of_three_users(self):
        inst = build_complete_s(3, 1, {1})
        for d in enumerate_assignments(inst):
            assert mais(inst, d) == 2
            assert brute_mais(inst, d) == 2

    @pytest.mark.parametrize(
        "m,t,sizes",
        [(3, 1, {1}), (4, 1, {0, 2}), (4, 2, {0, 2}), (5, 1, {0, 2, 4}), (4, 1, {0, 1, 2, 3})],
    )
    def test_matches_subset_enumeration(self, m, t, sizes):
        inst = build_complete_s(m, t, sizes)
        rng = seeded(m * 100 + t * 10 + len(sizes))
        for _ in range(8):
            d = one_assignment(inst, rng)
            assert mais(inst, d) == brute_mais(inst, d)

    def test_node_cap_overflow(self):
        inst = Instance(m=6, t=1, users=(frozenset(),) * 6)
        d = tuple(frozenset({x}) for x in range(6))
        with pytest.raises(SearchOverflow) as info:
            mais(inst, d, node_cap=10)
        assert 0 <= info.value.proven <= 6
        assert mais(inst, d, node_cap=200) == 6

    @pytest.mark.parametrize("seed", range(64, 76))
    def test_overflow_proves_a_lower_bound(self, seed):
        inst = small_random_instance(seed)
        d = random_assignment(seeded(seed), inst)
        want = brute_mais(inst, d)
        cap = 1
        while True:
            try:
                got = mais(inst, d, node_cap=cap)
            except SearchOverflow as exc:
                assert exc.proven <= want, (cap, exc.proven, want)
                cap *= 2
                continue
            assert got == want
            break

    def test_monotone_under_user_extension(self):
        rng = seeded(33)
        for _ in range(30):
            inst = random_instance(rng, m_max=5, n_max=7, t=1)
            d = random_assignment(rng, inst)
            if inst.n < 2:
                continue
            k = rng.randrange(1, inst.n)
            sub = Instance(inst.m, inst.t, inst.users[:k])
            assert mais(sub, d[:k]) <= mais(inst, d)


class TestMinMais:
    def test_known_small_values(self):
        assert min_mais_lower_bound(build_complete_s(3, 1, {1}))[0] == 2
        assert min_mais_lower_bound(build_complete_s(2, 1, {0}))[0] == 1
        assert min_mais_lower_bound(build_complete_s(4, 2, {2}))[0] == 2

    def test_witness_is_a_minimizer(self):
        inst = build_complete_s(4, 1, {0, 2})
        val, witness = min_mais_lower_bound(inst)
        validate_assignment(inst, witness)
        assert mais(inst, witness) == val == 3

    @pytest.mark.parametrize(
        "m,t,sizes",
        [(3, 1, {1}), (3, 1, {0, 1}), (2, 1, {0, 1}), (4, 1, {1, 3}), (4, 2, {1})],
    )
    def test_matches_full_enumeration(self, m, t, sizes):
        inst = build_complete_s(m, t, sizes)
        want = brute_min_mais(inst, enumerate_assignments(inst))
        got, witness = min_mais_lower_bound(inst)
        assert got == want
        assert brute_mais(inst, witness) == got

    @pytest.mark.parametrize("seed", range(40, 64))
    def test_matches_full_enumeration_without_symmetry(self, seed):
        inst = small_random_instance(seed)
        want = brute_min_mais(inst, enumerate_assignments(inst))
        got, witness = min_mais_lower_bound(inst)
        assert got == want
        validate_assignment(inst, witness)
        assert brute_mais(inst, witness) == got

    @pytest.mark.parametrize(
        "m,t,sizes",
        [(3, 1, {1}), (4, 1, {0, 2}), (4, 1, {1, 3}), (3, 2, {0, 1})],
    )
    def test_symmetry_pinning_changes_nothing(self, m, t, sizes):
        # complete-S, so user 0 is pinned; the value is still the minimum
        inst = build_complete_s(m, t, sizes)
        got, witness = min_mais_lower_bound(inst)
        assert got == brute_min_mais(inst, enumerate_assignments(inst))
        assert witness[0] == user_choices(inst, 0)[0]
        assert brute_mais(inst, witness) == got

    def test_no_pin_on_duplicate_users(self):
        # the layer counts add up (C(2, 0) + C(2, 1) = 3 users) but the empty
        # set appears twice; pinning user 0 to {0} would force a bound of 2
        inst = Instance(2, 1, (frozenset(), frozenset({0}), frozenset()))
        assert brute_min_mais(inst, enumerate_assignments(inst)) == 1
        got, witness = min_mais_lower_bound(inst)
        assert got == 1
        assert brute_mais(inst, witness) == 1

    def test_node_cap_overflow(self):
        inst = build_complete_s(5, 1, {0, 1, 2, 3, 4})
        with pytest.raises(SearchOverflow) as info:
            min_mais_lower_bound(inst, node_cap=1000)
        assert inst.t <= info.value.proven <= 4

    @pytest.mark.parametrize("seed", range(64, 88))
    def test_overflow_proves_a_lower_bound(self, seed):
        inst = small_random_instance(seed)
        want = brute_min_mais(inst, enumerate_assignments(inst))
        cap = 1
        while True:
            try:
                got, witness = min_mais_lower_bound(inst, node_cap=cap)
            except SearchOverflow as exc:
                assert inst.t <= exc.proven <= want, (cap, exc.proven, want)
                cap *= 2
                continue
            assert got == want
            assert brute_mais(inst, witness) == got
            break

    def test_no_users(self):
        assert min_mais_lower_bound(Instance(2, 1, ())) == (0, ())


class TestWideInputs:
    """Instances with 30 or 40 messages; the search must stay polynomial in m
    on them, so a design that walks all 2^m message sets fails on time or
    runs out of its node budget."""

    def test_forty_independent_demands(self):
        start = time.perf_counter()
        inst = Instance(m=40, t=1, users=(frozenset(),) * 40)
        value = mais(inst, tuple(frozenset({x}) for x in range(40)))
        elapsed = time.perf_counter() - start
        assert value == 40
        assert elapsed < 5.0

    @pytest.mark.parametrize("m,sizes", [(40, {39}), (30, {0})])
    def test_full_report_stays_exact(self, m, sizes):
        start = time.perf_counter()
        rep = full_report(m, 1, sizes)
        elapsed = time.perf_counter() - start
        assert rep.lower_bound_method == MAIS_EXACT
        assert elapsed < 5.0


class TestKnownGaps:
    """Two small instances where the assignment-minimized acyclic bound
    provably stops short of the optimal length: an adversarial assignment
    pairs messages into mutually blocking 2-cycles and funnels every
    remaining user onto a single message.  The optimum is still achieved
    and certified by the scheme, the generic lower bound just is not tight.
    """

    def test_four_messages_odd_layers(self):
        inst = build_complete_s(4, 1, {1, 3})
        val, witness = min_mais_lower_bound(inst)
        assert val == 2
        assert brute_mais(inst, witness) == 2
        assert optimal_partition(4, 1, {1, 3}).total_cost == 3

    def test_five_messages_even_layers(self):
        inst = build_complete_s(5, 1, {0, 2, 4})
        val, witness = min_mais_lower_bound(inst)
        assert val == 3
        assert brute_mais(inst, witness) == 3
        assert optimal_partition(5, 1, {0, 2, 4}).total_cost == 4

    def test_no_other_gap_below_five_messages(self):
        for m in range(1, 5):
            for t in range(1, m + 1):
                pool = list(range(0, m - t + 1))
                for r in range(1, len(pool) + 1):
                    for combo in itertools.combinations(pool, r):
                        sizes = frozenset(combo)
                        inst = build_complete_s(m, t, sizes)
                        val, _ = min_mais_lower_bound(inst)
                        cost = optimal_partition(m, t, sizes).total_cost
                        if (m, t, sizes) == (4, 1, frozenset({1, 3})):
                            assert val == cost - 1
                        else:
                            assert val == cost, (m, t, sorted(sizes))


class TestCriticalInstances:
    """Instances with m = 2s + t: the bound value of every assignment lies in
    a gap-free range whose minimum is exactly s + t."""

    @pytest.mark.parametrize("m,t,s", [(3, 1, 1), (4, 2, 1), (5, 1, 2), (5, 3, 1)])
    def test_value_set_is_contiguous_with_min_s_plus_t(self, m, t, s):
        assert m == 2 * s + t
        inst = build_complete_s(m, t, {s})
        values = {mais(inst, d) for d in enumerate_assignments(inst)}
        assert min(values) == s + t
        assert values == set(range(min(values), max(values) + 1))


class TestChainBound:
    def test_single_user(self):
        inst = Instance(m=3, t=1, users=(frozenset({0}),))
        assert chain_bound(inst, (frozenset({1}),), (0,)) == 1

    def test_empty_ordering(self):
        inst = build_complete_s(3, 1, {1})
        d = (frozenset({1}), frozenset({0}), frozenset({0}))
        assert chain_bound(inst, d, ()) == 0

    def test_duplicate_user_rejected(self):
        inst = build_complete_s(3, 1, {1})
        d = (frozenset({1}), frozenset({0}), frozenset({0}))
        with pytest.raises(ValueError):
            chain_bound(inst, d, (0, 0))

    def test_layered_walk_reaches_every_message(self):
        # follow users whose side information equals everything seen so far
        inst = build_complete_s(4, 1, {0, 1, 2, 3})
        rng = seeded(35)
        index = {a: i for i, a in enumerate(inst.users)}
        for _ in range(15):
            d = one_assignment(inst, rng)
            ordering = []
            seen: frozenset = frozenset()
            while seen != frozenset(range(4)):
                i = index[seen]
                ordering.append(i)
                seen = seen | d[i]
            assert chain_bound(inst, d, ordering) == 4

    def test_never_exceeds_acyclic_bound(self):
        rng = seeded(36)
        for _ in range(40):
            inst = random_instance(rng, m_max=5, n_max=6, t=rng.randint(1, 2))
            if inst.n == 0:
                continue
            d = random_assignment(rng, inst)
            k = rng.randint(0, inst.n)
            ordering = rng.sample(range(inst.n), k)
            assert chain_bound(inst, d, ordering) <= mais(inst, d)


class TestBestChainBound:
    def test_example_chain(self):
        inst = build_complete_s(3, 1, {1})
        d = (frozenset({1}), frozenset({0}), frozenset({0}))
        res = best_chain_bound(inst, d)
        assert res.value == 2 and res.exact
        assert chain_bound(inst, d, res.ordering) == 2

    def test_exact_matches_permutation_enumeration(self):
        rng = seeded(37)
        for _ in range(25):
            inst = random_instance(rng, m_max=5, n_max=5, t=1)
            if inst.n == 0:
                continue
            d = random_assignment(rng, inst)
            want = max(
                chain_bound(inst, d, p)
                for p in itertools.permutations(range(inst.n))
            )
            res = best_chain_bound(inst, d)
            assert res.exact and res.value == want

    def test_greedy_is_flagged_and_bounded(self):
        rng = seeded(38)
        for _ in range(20):
            inst = random_instance(rng, m_max=5, n_max=9, t=1)
            if inst.n == 0:
                continue
            d = random_assignment(rng, inst)
            exact = best_chain_bound(inst, d, exact_limit=12)
            greedy = best_chain_bound(inst, d, exact_limit=0)
            assert exact.exact and not greedy.exact
            assert greedy.value <= exact.value
            assert chain_bound(inst, d, greedy.ordering) == greedy.value

    def test_layered_instance_reaches_four(self):
        inst = build_complete_s(4, 1, {0, 1, 2, 3})
        rng = seeded(39)
        for _ in range(10):
            d = one_assignment(inst, rng)
            res = best_chain_bound(inst, d)
            assert res.value == 4 and not res.exact


class TestClosedForm:
    def test_rule_examples(self):
        assert closed_form_length(5, 1, {1, 2, 3}) == (4, CONSECUTIVE)
        assert closed_form_length(6, 1, {0, 1, 4, 5}) == (4, COMPLEMENT_CONSECUTIVE)
        assert closed_form_length(5, 1, {1, 3}) == (4, SMALL_M_TABLE)
        # 0 and m - t both present with a consecutive complement, so the
        # complement rule fires before the table; the values agree
        assert closed_form_length(4, 2, {0, 2}) == (4, COMPLEMENT_CONSECUTIVE)
        assert closed_form_length(5, 1, {2}) == (3, SINGLETON)
        assert closed_form_length(5, 1, {0, 2}) == (3, BELOW_MIDDLE)
        assert closed_form_length(5, 1, {2, 4}) == (3, ABOVE_MIDDLE)
        assert closed_form_length(7, 1, {2, 3, 4, 6}) == (5, MIDDLE_BAND)

    def test_none_when_nothing_applies(self):
        assert closed_form_length(5, 2, {0, 2}) is None
        assert closed_form_length(6, 1, {0, 2, 5}) is None

    def test_consecutive_value_formula(self):
        for m in range(2, 7):
            for t in (1, 2):
                if t > m:
                    continue
                for lo in range(0, m - t + 1):
                    for hi in range(lo + 1, m - t + 1):
                        got = closed_form_length(m, t, set(range(lo, hi + 1)))
                        assert got == (min(hi + t, m - lo), CONSECUTIVE)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            closed_form_length(3, 4, {0})
        with pytest.raises(ValueError):
            closed_form_length(4, 2, {3})

    def test_table_rows_match_partition_cost(self):
        rows = small_m_table_rows()
        assert len(rows) == 13
        # two rows double as complement-consecutive profiles and report
        # under that rule; every other row is reachable only via the table
        shadowed = {(4, frozenset({0, 2}), 2), (5, frozenset({0, 3}), 2)}
        for m, sizes, t, value in rows:
            got = closed_form_length(m, t, sizes)
            if (m, sizes, t) in shadowed:
                assert got == (value, COMPLEMENT_CONSECUTIVE)
            else:
                assert got == (value, SMALL_M_TABLE)
            assert optimal_partition(m, t, sizes).total_cost == value


class TestBoundReport:
    def test_tight_flag_must_match(self):
        code = LinearCode(2, 2, ((1, 0),))
        with pytest.raises(ValueError):
            BoundReport(
                m=2, t=1, sizes=(0,), lower_bound=1, lower_bound_method=MAIS_EXACT,
                achieved=1, tight=False, closed_form=None,
                witness_code=code, witness_assignment=(frozenset({0}),),
            )

    def test_closed_form_must_sit_between_bounds(self):
        code = LinearCode(2, 2, ((1, 0),))
        with pytest.raises(ValueError):
            BoundReport(
                m=2, t=1, sizes=(0,), lower_bound=1, lower_bound_method=MAIS_EXACT,
                achieved=1, tight=True, closed_form=(2, SINGLETON),
                witness_code=code, witness_assignment=(frozenset({0}),),
            )

    def test_json_shape(self):
        rep = full_report(3, 1, {1})
        obj = json.loads(rep.to_json())
        assert obj["m"] == 3 and obj["t"] == 1 and obj["S"] == [1]
        assert obj["lower_bound"] == 2 and obj["achieved"] == 2
        assert obj["tight"] is True
        assert obj["closed_form"] == {"value": 2, "rule": SINGLETON}
        assert obj["lower_bound_method"] == MAIS_EXACT
        assert obj["witness_code"]["q"] == 2
        assert len(obj["witness_assignment"]) == 3


class TestFullReport:
    def test_three_messages_singleton(self):
        rep = full_report(3, 1, {1}, q=2)
        assert (rep.lower_bound, rep.achieved, rep.tight) == (2, 2, True)
        assert rep.closed_form == (2, SINGLETON)
        assert is_valid(rep.witness_code, build_complete_s(3, 1, {1})).valid

    def test_four_messages_table_row(self):
        rep = full_report(4, 1, {0, 2})
        assert (rep.lower_bound, rep.achieved, rep.tight) == (3, 3, True)
        assert rep.closed_form == (3, SMALL_M_TABLE)

    def test_trivial_instance(self):
        rep = full_report(2, 1, {0})
        assert (rep.lower_bound, rep.achieved, rep.tight) == (1, 1, True)

    def test_gap_is_reported_not_hidden(self):
        rep = full_report(5, 1, {0, 2, 4})
        assert rep.lower_bound == 3
        assert rep.achieved == 4
        assert not rep.tight
        assert rep.lower_bound_method == MAIS_EXACT
        assert rep.closed_form == (4, SMALL_M_TABLE)

    def test_spent_budget_reports_partial_bound(self):
        rep = full_report(5, 1, {0, 2, 3}, node_cap=100)
        assert rep.lower_bound_method == MAIS_PARTIAL
        assert rep.achieved == 4
        assert 1 <= rep.lower_bound <= 4
        inst = build_complete_s(5, 1, {0, 2, 3})
        validate_assignment(inst, rep.witness_assignment)

    @pytest.mark.parametrize("m,t,sizes", [(5, 2, {1, 2, 3}), (6, 1, {0, 1, 4, 5})])
    def test_large_unicast_expansion_stays_exact(self, m, t, sizes):
        rep = full_report(m, t, sizes)
        assert rep.lower_bound_method == MAIS_EXACT
        assert (rep.lower_bound, rep.achieved) == (4, 4)

    def test_witness_assignment_is_valid(self):
        for m, t, sizes in [(3, 1, {1}), (4, 2, {0, 2}), (5, 1, {0, 2, 4})]:
            rep = full_report(m, t, sizes)
            validate_assignment(build_complete_s(m, t, sizes), rep.witness_assignment)
