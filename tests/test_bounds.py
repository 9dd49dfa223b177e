"""Acyclic-set bound, decoding chains, closed forms, and combined reports."""

import itertools
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
    BoundReport,
    best_chain_bound,
    chain_bound,
    closed_form_length,
    full_report,
    mais,
    min_mais_lower_bound,
)
from picod.coding import LinearCode, build_partition_scheme, optimal_partition
from picod.errors import SearchOverflow
from picod.instance import (
    Instance,
    build_complete_s,
    complete_s_sizes,
    user_choices,
    validate_assignment,
)
from picod.verifier import induced_assignment, is_valid, min_linear_length_exhaustive
from util import (
    assignment_count, brute_best_chain, brute_code_valid, brute_mais, brute_min_mais,
    enumerate_assignments, random_assignment, random_instance, seeded,
)


def one_assignment(inst, rng):
    return tuple(frozenset(rng.choice(user_choices(inst, i))) for i in range(inst.n))


# Every complete-S profile with m <= 4 and t <= 2 except m=4 t=1 S={1,2,3},
# whose 5184 assignments take the brute-force oracle about 7 s.
SMALL_COMPLETE_PROFILES = [
    (m, t, set(sizes))
    for m in range(1, 5)
    for t in range(1, min(m, 2) + 1)
    for r in range(1, m - t + 2)
    for sizes in itertools.combinations(range(m - t + 1), r)
    if (m, t, sizes) != (4, 1, (1, 2, 3))
]


def small_random_instance(seed):
    """A random instance, usually not complete-S, whose assignments are few
    enough to enumerate through the brute-force oracle."""
    rng = seeded(seed)
    while True:
        inst = random_instance(rng, m_max=5, n_max=6, t=rng.randint(1, 2))
        if assignment_count(inst) <= 2000:
            return inst


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
        # complete-S, so the scan tries one choice per stabilizer orbit; at
        # depth 0 that is user 0's first choice, and the value is still the minimum
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

    def test_no_orbit_rule_one_user_short(self):
        # the size-2 layer lacks {1, 3}, so not complete-S; with the orbit
        # rule applied anyway the scan would find 3 instead of 2
        users = build_complete_s(4, 1, {0, 2}).users
        assert users[5] == {1, 3}
        inst = Instance(4, 1, users[:5] + users[6:])
        assert complete_s_sizes(inst) == ()
        scored = [(brute_mais(inst, d), d) for d in enumerate_assignments(inst)]
        low = min(v for v, _ in scored)
        assert min_mais_lower_bound(inst) == (low, next(d for v, d in scored if v == low))

    @pytest.mark.parametrize("m,t,sizes", SMALL_COMPLETE_PROFILES)
    def test_witness_is_first_brute_force_minimizer(self, m, t, sizes):
        # in build order, reversed and shuffled, so user 0 is not always in
        # the lowest layer; every order enumerates the same assignments
        built = build_complete_s(m, t, sizes)
        score = {d: brute_mais(built, d) for d in enumerate_assignments(built)}
        low = min(score.values())
        order = list(range(built.n))
        shuffled = order[:]
        seeded(100 * m + 10 * t + len(sizes)).shuffle(shuffled)
        for perm in (order, order[::-1], shuffled):
            inst = Instance(m, t, tuple(built.users[p] for p in perm))
            first = next(
                d for d in enumerate_assignments(inst)
                if score[tuple(x for _, x in sorted(zip(perm, d)))] == low
            )
            assert min_mais_lower_bound(inst) == (low, first), perm

    def test_orbit_rule_prunes(self):
        # without the orbit rule (user 0 pinned only) this search pops
        # 3,329,140 sets; with it, 233,699
        inst = build_complete_s(5, 1, {0, 1, 2, 3})
        assert min_mais_lower_bound(inst, node_cap=10**6)[0] == 4

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

    @pytest.mark.parametrize("m,t,sizes,pops,value,witness", [
        (5, 1, {1, 3}, 28402, 4, "1 0 0 0 0 3 2 2 1 1 1 0 0 0 0"),
        (5, 1, {1, 3, 4}, 28418, 4, "1 0 0 0 0 3 2 2 1 1 1 0 0 0 0 4 3 2 1 0"),
        (5, 2, {0, 1, 3}, 7058, 5, "01 12 02 01 01 01 34 24 23 14 13 12 04 03 02 01"),
    ])
    def test_exact_pop_budget(self, m, t, sizes, pops, value, witness):
        # the exact number of sets the search pops on these instances, so a
        # change of search path (pop order, seeding, pruning) moves it; the
        # witness lists each user's desired messages as one group of digits
        inst = build_complete_s(m, t, sizes)
        want = tuple(frozenset(map(int, group)) for group in witness.split())
        assert min_mais_lower_bound(inst, node_cap=pops) == (value, want)
        with pytest.raises(SearchOverflow) as info:
            min_mais_lower_bound(inst, node_cap=pops - 1)
        assert info.value.proven == value


class TestWideInputs:
    """Instances with many messages or users; the searches must not walk all
    2^m message sets or every ordering of the users, so a design that does
    fails on time or runs out of its node budget."""

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
        rep = full_report(build_complete_s(m, 1, sizes))
        elapsed = time.perf_counter() - start
        assert rep.lower_bound_method == MAIS_EXACT
        assert elapsed < 5.0

    def test_chain_on_induced_witness(self):
        # 330 users: a search keyed on which users are placed takes minutes
        inst = build_complete_s(10, 2, {3, 4})
        d = induced_assignment(build_partition_scheme(optimal_partition(10, 2, {3, 4})), inst)
        start = time.perf_counter()
        res = best_chain_bound(inst, d)
        elapsed = time.perf_counter() - start
        assert res.value == 6
        assert elapsed < 1.0

    def test_chain_on_eighteen_independent_demands(self):
        # every union of placed users is reachable, so only the cut at the
        # count of desired messages left keeps this off 2^18 states
        inst = Instance(m=18, t=1, users=(frozenset(),) * 18)
        start = time.perf_counter()
        res = best_chain_bound(inst, tuple(frozenset({x}) for x in range(18)))
        elapsed = time.perf_counter() - start
        assert res.value == 18
        assert elapsed < 0.5


class TestKnownGaps:
    """Two small instances where the assignment-minimized acyclic bound
    stops short of the partition scheme: an adversarial assignment pairs
    messages into mutually blocking 2-cycles and funnels every remaining
    user onto a single message.  The gap is the scheme's, not the bound's:
    TestShorterThanPartition verifies codes of the bound's length.
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


class TestShorterThanPartition:
    """Send the sum of each message pair, and any unpaired message uncoded.
    A t = 1 user decodes something unless it holds whole pairs and the
    unpaired message, a set of m's parity; sizes of the other parity rule
    that out.  On the two known gaps this code has the acyclic bound's
    length, so the bound is the optimum there."""

    @pytest.mark.parametrize("m,sizes,rows", [
        (4, {1, 3}, ((1, 0, 0, 1), (0, 1, 1, 0))),
        (5, {0, 2, 4}, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 1, 1, 0))),
    ])
    def test_pairing_code_meets_the_bound(self, m, sizes, rows):
        inst = build_complete_s(m, 1, sizes)
        assert brute_code_valid(2, rows, inst)
        assert len(rows) == min_mais_lower_bound(inst)[0]
        assert len(rows) == optimal_partition(m, 1, sizes).total_cost - 1

    @pytest.mark.parametrize("t,profiles,shorter", [(1, 28, 8), (2, 8, 1)])
    def test_six_message_census(self, t, profiles, shorter):
        # among the m = 6 profiles no closed form covers, how many have a
        # GF(2) code shorter than the partition scheme; each shorter witness
        # is re-checked by the independent brute-force closure
        seen = []
        for r in range(1, 7 - t + 1):
            for sizes in itertools.combinations(range(6 - t + 1), r):
                if closed_form_length(6, t, sizes) is None:
                    inst = build_complete_s(6, t, sizes)
                    ell, code = min_linear_length_exhaustive(inst, q=2)
                    seen.append(ell < optimal_partition(6, t, sizes).total_cost)
                    assert code.ell == ell
                    assert not seen[-1] or brute_code_valid(2, code.rows, inst)
        assert (len(seen), sum(seen)) == (profiles, shorter)


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
        assert res.value == 2
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
            assert res.value == want == mais(inst, d)

    def test_matches_brute_force_on_many_users(self):
        rng = seeded(40)
        for _ in range(30):
            inst = random_instance(rng, m_max=8, n_min=13, n_max=16, t=rng.randint(1, 2))
            d = random_assignment(rng, inst)
            res = best_chain_bound(inst, d)
            assert res.value == brute_best_chain(inst, d) == mais(inst, d)
            assert chain_bound(inst, d, res.ordering) == res.value

    @pytest.mark.parametrize("m,t,sizes,want", [
        (4, 1, {0, 2}, 3), (5, 1, {0, 3}, 3), (5, 2, {0, 1, 3}, 5),
    ])
    def test_report_witness(self, m, t, sizes, want):
        inst = build_complete_s(m, t, sizes)
        report = full_report(inst)
        d = report.witness_assignment
        res = best_chain_bound(inst, d)
        assert res.value == brute_best_chain(inst, d) == want == report.lower_bound
        assert chain_bound(inst, d, res.ordering) == want

    def test_layered_instance_reaches_four(self):
        inst = build_complete_s(4, 1, {0, 1, 2, 3})
        rng = seeded(39)
        for _ in range(10):
            d = one_assignment(inst, rng)
            assert best_chain_bound(inst, d).value == 4


class TestClosedForm:
    def test_rule_examples(self):
        assert closed_form_length(5, 1, {1, 2, 3}) == (4, CONSECUTIVE)
        assert closed_form_length(6, 1, {0, 1, 4, 5}) == (4, COMPLEMENT_CONSECUTIVE)
        # no theorem of the paper covers this profile
        assert closed_form_length(5, 1, {1, 3}) is None
        # 0 and m - t both present with a consecutive complement
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

    def test_every_closed_form_equals_partition_cost(self):
        # every profile with m <= 10 that some rule covers
        covered = 0
        for m in range(1, 11):
            for t in range(1, m + 1):
                pool = range(m - t + 1)
                for r in range(1, len(pool) + 1):
                    for sizes in itertools.combinations(pool, r):
                        got = closed_form_length(m, t, sizes)
                        if got is not None:
                            covered += 1
                            assert got[0] == optimal_partition(m, t, sizes).total_cost
        assert covered == 1333


class TestBoundReport:
    def test_closed_form_must_sit_between_bounds(self):
        code = LinearCode(2, 2, ((1, 0),))
        with pytest.raises(ValueError):
            BoundReport(
                m=2, t=1, sizes=(0,), lower_bound=1, lower_bound_method=MAIS_EXACT,
                achieved=1, closed_form=(2, SINGLETON),
                witness_code=code, witness_assignment=(frozenset({0}),),
            )

    def test_json_shape(self):
        rep = full_report(build_complete_s(3, 1, {1}))
        obj = rep.wire()
        assert obj["m"] == 3 and obj["t"] == 1 and obj["S"] == [1]
        assert obj["lower_bound"] == 2 and obj["achieved"] == 2
        assert obj["tight"] is True
        assert obj["closed_form"] == {"value": 2, "rule": SINGLETON}
        assert obj["lower_bound_method"] == MAIS_EXACT
        assert obj["witness_code"]["q"] == 2
        assert len(obj["witness_assignment"]) == 3


class TestFullReport:
    def test_three_messages_singleton(self):
        inst = build_complete_s(3, 1, {1})
        rep = full_report(inst, q=2)
        assert (rep.lower_bound, rep.achieved, rep.tight) == (2, 2, True)
        assert rep.closed_form == (2, SINGLETON)
        assert is_valid(rep.witness_code, inst).valid

    def test_four_messages_table_row(self):
        rep = full_report(build_complete_s(4, 1, {0, 2}))
        assert (rep.lower_bound, rep.achieved, rep.tight) == (3, 3, True)
        # no theorem of the paper covers S = {0, 2} at m = 4
        assert rep.closed_form is None

    def test_trivial_instance(self):
        rep = full_report(build_complete_s(2, 1, {0}))
        assert (rep.lower_bound, rep.achieved, rep.tight) == (1, 1, True)

    def test_gap_is_reported_not_hidden(self):
        rep = full_report(build_complete_s(5, 1, {0, 2, 4}))
        assert rep.lower_bound == 3
        assert rep.achieved == 4
        assert not rep.tight
        assert rep.lower_bound_method == MAIS_EXACT
        assert rep.closed_form is None

    def test_spent_budget_reports_partial_bound(self):
        inst = build_complete_s(5, 1, {0, 2, 3})
        rep = full_report(inst, node_cap=100)
        assert rep.lower_bound_method == MAIS_PARTIAL
        assert rep.achieved == 4
        assert 1 <= rep.lower_bound <= 4
        validate_assignment(inst, rep.witness_assignment)

    @pytest.mark.parametrize("m,t,sizes", [(5, 2, {1, 2, 3}), (6, 1, {0, 1, 4, 5})])
    def test_large_unicast_expansion_stays_exact(self, m, t, sizes):
        rep = full_report(build_complete_s(m, t, sizes))
        assert rep.lower_bound_method == MAIS_EXACT
        assert (rep.lower_bound, rep.achieved) == (4, 4)

    def test_witness_assignment_is_valid(self):
        for m, t, sizes in [(3, 1, {1}), (4, 2, {0, 2}), (5, 1, {0, 2, 4})]:
            inst = build_complete_s(m, t, sizes)
            rep = full_report(inst)
            validate_assignment(inst, rep.witness_assignment)

    def test_rejects_incomplete_instance(self):
        users = build_complete_s(4, 1, {0, 2}).users
        missing = Instance(4, 1, users[:-1])
        duplicated = Instance(4, 1, users[:-1] + users[:1])
        for inst in (missing, duplicated, Instance(4, 1, ())):
            with pytest.raises(ValueError, match="not complete"):
                full_report(inst)
