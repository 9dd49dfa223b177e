"""Averaging pairs, intersection-family witnesses, and block covers."""

import itertools
import math
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from picod import oracles
from picod.errors import CapExceeded
from picod.oracles import (
    BlockCover,
    SweepSummary,
    block_cover_impossibility,
    check_block_cover,
    averaging_pair,
    intersection_family_witness,
    random_averaging_suite,
    sweep_intersection_families,
    verify_intersection_witness,
)

from util import brute_family_witness, seeded


def all_nonempty_subsets(s):
    out = []
    for size in range(1, s + 1):
        out.extend(frozenset(c) for c in itertools.combinations(range(s), size))
    return out


class TestAveragingPair:
    def test_single_block_single_element(self):
        assert averaging_pair([frozenset({0})], 1) == (0, 0)

    def test_majority_column_wins(self):
        blocks = [frozenset({0}), frozenset({0}), frozenset({1})]
        i, j = averaging_pair(blocks, 2)
        assert (i, j) == (0, 0)
        # two of three blocks contain column 0 and the smallest has size 1,
        # so 2 * 2 >= 3 * 1
        assert 2 * 2 >= 3 * 1

    def test_full_blocks_reach_equality(self):
        blocks = [frozenset(range(3))] * 4
        i, j = averaging_pair(blocks, 3)
        c_j = sum(1 for b in blocks if j in b)
        assert c_j * 3 == 4 * len(blocks[i])

    def test_rejections(self):
        with pytest.raises(ValueError):
            averaging_pair([], 3)
        with pytest.raises(ValueError):
            averaging_pair([frozenset()], 3)
        with pytest.raises(ValueError):
            averaging_pair([frozenset({3})], 3)

    def test_random_families_satisfy_the_bound(self):
        rng = seeded(501)
        for _ in range(300):
            y = rng.randint(1, 8)
            x = rng.randint(1, 8)
            blocks = [
                frozenset(rng.sample(range(y), rng.randint(1, y)))
                for _ in range(x)
            ]
            i, j = averaging_pair(blocks, y)
            assert j in blocks[i]
            c_j = sum(1 for b in blocks if j in b)
            # integer cross-multiplication, no floats anywhere
            assert c_j * y >= x * len(blocks[i])

    def test_suite_runner(self):
        summary = random_averaging_suite(500, seed=77)
        assert summary.trials == 500
        assert summary.failures == 0
        assert summary.ok

    def test_suite_counts_a_pair_that_breaks_the_bound(self, monkeypatch):
        # the column just outside the ground lies in no block
        monkeypatch.setattr(oracles, "_pair", lambda masks, ground: (0, ground.bit_length()))
        summary = random_averaging_suite(50, seed=77)
        assert summary.failures == 50
        assert not summary.ok
        with pytest.raises(AssertionError):
            averaging_pair([frozenset({0}), frozenset({0, 1})], 2)

    def test_public_pair_asserts_the_bound_not_only_membership(self, monkeypatch):
        # j = 1 lies in B_1 = {0, 1}, but c_1 * 2 = 2 < 3 * 2
        monkeypatch.setattr(oracles, "_pair", lambda masks, ground: (1, 1))
        with pytest.raises(AssertionError):
            averaging_pair([frozenset({0}), frozenset({0, 1}), frozenset({0})], 2)

    def test_integer_weights_match_fractions_on_random_families(self):
        rng = seeded(505)
        for _ in range(10_000):
            y = rng.randint(1, 8)
            x = rng.randint(1, 12)
            blocks = [
                frozenset(rng.sample(range(y), rng.randint(1, y)))
                for _ in range(x)
            ]
            assert averaging_pair(blocks, y) == fraction_averaging_pair(blocks, y)

    def test_integer_weights_match_fractions_inside_the_sweep(self, monkeypatch):
        seen = record_pairs(monkeypatch)
        assert sweep_intersection_families(3).ok
        assert seen
        for masks, _, pair in seen:
            # the recursion narrows the ground mask instead of relabeling, so
            # columns outside it weigh 0 and never win the comparison
            blocks = [frozenset(v for v in range(3) if b >> v & 1) for b in masks]
            assert pair == fraction_averaging_pair(blocks, 3)

    def test_integer_weights_match_fractions_on_the_suites_draws(self, monkeypatch):
        seen = record_pairs(monkeypatch)
        assert random_averaging_suite(2000, seed=508).ok
        assert len(seen) == 2000
        for masks, ground, pair in seen:
            y = ground.bit_length()
            blocks = [frozenset(v for v in range(y) if b >> v & 1) for b in masks]
            assert pair == fraction_averaging_pair(blocks, y)

    def test_suite_draw_table_has_the_law_of_a_size_then_a_subset(self):
        # one uniform choice from _DRAW[y] must draw a size k uniform in 1..y
        # and then a uniform k-subset of range(y), the law of
        # rng.sample(range(y), rng.randint(1, y))
        for y in range(1, 9):
            counts = Counter(oracles._DRAW[y])
            total = sum(counts.values())
            for k in range(1, y + 1):
                klass = {b: c for b, c in counts.items() if b.bit_count() == k}
                assert set(klass) == {b for b in range(1 << y) if b.bit_count() == k}
                assert Fraction(sum(klass.values()), total) == Fraction(1, y)
                assert len(set(klass.values())) == 1
            assert set(counts) == set(range(1, 1 << y))


def record_pairs(monkeypatch):
    """Wrap oracles._pair; the list collects (masks, ground, result) per call."""
    real = oracles._pair
    seen = []

    def recording(masks, ground):
        pair = real(masks, ground)
        seen.append((list(masks), ground, pair))
        return pair

    monkeypatch.setattr(oracles, "_pair", recording)
    return seen


def fraction_averaging_pair(blocks, ground_size):
    """The averaging pair with column weights summed as exact Fractions."""
    weight = [Fraction(0)] * ground_size
    for b in blocks:
        w = Fraction(1, len(b))
        for v in b:
            weight[v] += w
    j = max(range(ground_size), key=lambda v: weight[v])
    i = min(
        (k for k in range(len(blocks)) if j in blocks[k]),
        key=lambda k: (len(blocks[k]), k),
    )
    return i, j


class TestVerifyIntersectionWitness:
    def test_accepts_exact_match(self):
        blocks = [frozenset({0}), frozenset({0, 1})]
        assert verify_intersection_witness(blocks, (0, 1))

    def test_rejects_wrong_size(self):
        blocks = [frozenset({0}), frozenset({1})]
        assert not verify_intersection_witness(blocks, (0, 1))

    def test_rejects_bad_index_sets(self):
        blocks = [frozenset({0}), frozenset({0})]
        assert not verify_intersection_witness(blocks, ())
        assert not verify_intersection_witness(blocks, (0, 0))
        assert not verify_intersection_witness(blocks, (2,))
        assert not verify_intersection_witness(blocks, (-1,))


class TestIntersectionFamilyWitness:
    def test_two_copies_of_the_point(self):
        blocks = [frozenset({0}), frozenset({0})]
        assert intersection_family_witness(blocks, 1) == (0, 1)

    def test_empty_block_is_its_own_witness(self):
        blocks = [frozenset({0, 1}), frozenset(), frozenset({1})]
        assert intersection_family_witness(blocks, 2) == (1,)

    def test_three_blocks_over_two_points(self):
        blocks = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
        witness = intersection_family_witness(blocks, 2)
        assert witness == (0, 2)
        assert verify_intersection_witness(blocks, witness)

    def test_rejections(self):
        with pytest.raises(ValueError):
            intersection_family_witness([frozenset({0})], 2)
        with pytest.raises(ValueError):
            intersection_family_witness(
                [frozenset({5}), frozenset(), frozenset()], 2
            )

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_exhaustive_small_ground_sets(self, s):
        pool = all_nonempty_subsets(s)
        count = 0
        for family in itertools.product(pool, repeat=s + 1):
            blocks = list(family)
            witness = intersection_family_witness(blocks, s)
            assert verify_intersection_witness(blocks, witness)
            assert brute_family_witness(blocks, s) is not None
            count += 1
        assert count == ((1 << s) - 1) ** (s + 1)

    def test_narrowed_ground_needs_no_relabeling(self):
        # the recursion passes a ground mask that is not an initial segment;
        # its witness must be the one of the order-preserving relabeling
        rng = seeded(506)
        for _ in range(500):
            ground = sorted(rng.sample(range(9), rng.randint(1, 6)))
            s = len(ground)
            small = [frozenset(rng.sample(range(s), rng.randint(0, s))) for _ in range(s + 1)]
            masks = [sum(1 << ground[v] for v in b) for b in small]
            full = sum(1 << v for v in ground)
            assert oracles._witness(masks, full) == intersection_family_witness(small, s)

    def test_internal_brute_force_agrees(self):
        rng = seeded(502)
        pool = all_nonempty_subsets(4)
        for _ in range(200):
            blocks = [rng.choice(pool) for _ in range(5)]
            witness = intersection_family_witness(blocks, 4)
            shortest = brute_family_witness(blocks, 4)
            assert shortest is not None
            assert verify_intersection_witness(blocks, witness)
            assert len(shortest) <= len(witness)


class TestSweep:
    def test_counts_per_ground_size(self):
        assert sweep_intersection_families(1).families == 1
        summary = sweep_intersection_families(2)
        assert summary.families == 27
        assert summary.ok
        summary = sweep_intersection_families(3)
        assert summary.families == 2401
        assert summary.distinct_keys <= 2401
        assert summary.ok

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_ordered_brute_force(self, s):
        families = failures = 0
        keys = set()
        for family in itertools.product(all_nonempty_subsets(s), repeat=s + 1):
            families += 1
            keys.add(tuple(sorted(tuple(sorted(b)) for b in family)))
            if brute_family_witness(list(family), s) is None:
                failures += 1
        assert failures == 0
        assert sweep_intersection_families(s) == SweepSummary(s, families, len(keys), 0)

    def test_failures_are_weighted_per_ordering(self, monkeypatch):
        # every block is nonempty, so the single index 0 never meets in 0 elements
        monkeypatch.setattr(oracles, "_witness", lambda masks, ground: (0,))
        for s, families in ((2, 27), (3, 2401)):
            summary = sweep_intersection_families(s)
            assert summary.families == summary.failures == families

    def test_one_failing_multiset_counts_each_ordering(self, monkeypatch):
        real = oracles._witness
        bad = Counter([0b01, 0b01, 0b11])  # the multiset {0}, {0}, {0, 1}

        def fail_once(masks, ground):
            return (0,) if ground == 0b11 and Counter(masks) == bad else real(masks, ground)

        monkeypatch.setattr(oracles, "_witness", fail_once)
        summary = sweep_intersection_families(2)
        assert (summary.families, summary.failures) == (27, 3)

    def test_rejects_nonpositive_ground(self):
        with pytest.raises(ValueError):
            sweep_intersection_families(0)

    @pytest.mark.parametrize("s,count", [(5, 1947792), (6, 1078897248)])
    def test_default_cap_refuses_before_any_work(self, monkeypatch, s, count):
        monkeypatch.setattr(oracles, "_witness", None)  # any check would fail
        with pytest.raises(CapExceeded) as exc:
            sweep_intersection_families(s)
        assert (exc.value.size, exc.value.cap) == (count, oracles.DEFAULT_COLLECTION_CAP)

    def test_cap_bounds_the_multisets_exactly(self):
        assert sweep_intersection_families(3, collection_cap=210).distinct_keys == 210
        with pytest.raises(CapExceeded) as exc:
            sweep_intersection_families(3, collection_cap=209)
        assert exc.value.size == 210

    @pytest.mark.parametrize("s", [30, 10**9])
    def test_refuses_a_ground_size_without_counting_its_multisets(self, monkeypatch, s):
        # 2^s alone exceeds the cap; the refusal names the largest ground
        # size whose multisets fit, 4 at the default cap
        monkeypatch.setattr(oracles, "_witness", None)
        with pytest.raises(CapExceeded) as exc:
            sweep_intersection_families(s)
        assert (exc.value.size, exc.value.cap) == (s, 4)


def reference_cover_check(m, s, t, blocks):
    """Property order mirror: block sanity, then coverage, then intersections."""
    for b in blocks:
        if any(v < 0 or v >= m for v in b):
            return "P2"
        if not (s < len(b) <= m):
            return "P2"
    for sub in itertools.combinations(range(m), s):
        if not any(frozenset(sub) <= b for b in blocks):
            return "P1"
    for r in range(1, len(blocks) + 1):
        for picked in itertools.combinations(range(len(blocks)), r):
            inter = frozenset(range(m))
            for k in picked:
                inter &= blocks[k]
            if s <= len(inter) <= s + t - 1:
                return "P3"
    return None


def assert_p3_detail(m, s, t, blocks, detail):
    """The P3 detail names distinct blocks that meet in s..s+t-1 elements, and how many."""
    found = re.fullmatch(r"blocks \[([\d, ]+)\] meet in (\d+) elements", detail)
    assert found, detail
    picked = [int(k) for k in found[1].split(", ")]
    assert len(set(picked)) == len(picked)
    assert all(0 <= k < len(blocks) for k in picked)
    inter = frozenset(range(m)).intersection(*(blocks[k] for k in picked))
    assert s <= len(inter) <= s + t - 1
    assert len(inter) == int(found[2])


class TestCheckBlockCover:
    def test_single_full_block_passes(self):
        cover = BlockCover(4, 1, 2, (frozenset(range(4)),))
        assert check_block_cover(cover).ok

    def test_two_disjoint_pairs_pass(self):
        cover = BlockCover(4, 1, 1, (frozenset({0, 1}), frozenset({2, 3})))
        assert check_block_cover(cover).ok

    def test_overlapping_pairs_fail_p3(self):
        cover = BlockCover(3, 1, 1, (frozenset({0, 1}), frozenset({1, 2})))
        res = check_block_cover(cover)
        assert not res.ok
        assert res.failed_property == "P3"

    def test_singleton_sized_block_can_fail_p3(self):
        cover = BlockCover(4, 1, 2, (frozenset({0, 1}), frozenset({2, 3})))
        res = check_block_cover(cover)
        assert res.failed_property == "P3"

    def test_small_block_fails_p2(self):
        cover = BlockCover(4, 1, 1, (frozenset({0}), frozenset({1, 2, 3})))
        res = check_block_cover(cover)
        assert res.failed_property == "P2"

    def test_stray_element_fails_p2(self):
        cover = BlockCover(3, 1, 1, (frozenset({1, 4}),))
        assert check_block_cover(cover).failed_property == "P2"

    def test_uncovered_subset_fails_p1(self):
        cover = BlockCover(3, 1, 1, (frozenset({0, 1}),))
        assert check_block_cover(cover).failed_property == "P1"

    @pytest.mark.parametrize("m,s,t", [(3, 3, 1), (3, 5, 1), (3, -1, 1), (3, 1, 0)])
    def test_rejects_parameters_without_a_cover_question(self, m, s, t):
        # s >= m leaves no admissible block, t = 0 leaves P3 nothing to forbid
        with pytest.raises(ValueError, match="0 <= s < m and t >= 1"):
            check_block_cover(BlockCover(m, s, t, (frozenset({0, 1}), frozenset({1, 2}))))

    def test_matches_reference_on_random_covers(self):
        rng = seeded(503)
        for _ in range(150):
            m = rng.randint(2, 6)
            s = rng.randint(1, m - 1)
            t = rng.randint(1, m - s)
            blocks = []
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.7:
                    size = rng.randint(min(s + 1, m), m)
                else:
                    size = rng.randint(0, m)
                blocks.append(frozenset(rng.sample(range(m), size)))
            cover = BlockCover(m, s, t, tuple(blocks))
            res = check_block_cover(cover)
            expected = reference_cover_check(m, s, t, blocks)
            assert res.ok == (expected is None)
            assert res.failed_property == expected
            if expected == "P3":
                assert_p3_detail(m, s, t, blocks, res.detail)

    def test_matches_reference_on_larger_collections(self):
        # up to 7 admissible blocks and s = 0 as well: P3 details may then
        # name several blocks
        rng = seeded(507)
        failures = 0
        for _ in range(500):
            m = rng.randint(2, 7)
            s = rng.randint(0, m - 1)
            t = rng.randint(1, m - s)
            blocks = [
                frozenset(rng.sample(range(m), rng.randint(s + 1, m)))
                for _ in range(rng.randint(1, 7))
            ]
            res = check_block_cover(BlockCover(m, s, t, tuple(blocks)))
            assert res.failed_property == reference_cover_check(m, s, t, blocks)
            if res.failed_property == "P3":
                assert_p3_detail(m, s, t, blocks, res.detail)
                failures += 1
        assert failures >= 50

    def test_nested_cover_is_checked_without_visiting_every_sub_collection(self):
        # all 31 blocks {0, 1} + X, X a nonempty subset of {2..6}: every
        # sub-collection meets in at least 2 elements, so no prune below s
        # ever fires, and a search over sub-collections visits all 2^31
        blocks = tuple(
            frozenset({0, 1, *x}) for r in range(1, 6) for x in itertools.combinations(range(2, 7), r)
        )
        assert len(blocks) == 31
        start = time.perf_counter()
        res = check_block_cover(BlockCover(7, 1, 1, blocks))
        assert time.perf_counter() - start < 0.1
        assert res.ok

    def test_verdict_is_permutation_equivariant(self):
        rng = seeded(504)
        for _ in range(60):
            m = rng.randint(2, 6)
            s = rng.randint(1, m - 1)
            t = rng.randint(1, m - s)
            blocks = tuple(
                frozenset(rng.sample(range(m), rng.randint(s + 1, m)))
                for _ in range(rng.randint(1, 4))
            )
            perm = list(range(m))
            rng.shuffle(perm)
            mapped = tuple(frozenset(perm[v] for v in b) for b in blocks)
            first = check_block_cover(BlockCover(m, s, t, blocks))
            second = check_block_cover(BlockCover(m, s, t, mapped))
            assert first.ok == second.ok
            assert first.failed_property == second.failed_property


class TestBlockCoverImpossibility:
    def test_no_small_cover_on_three_messages(self):
        summary = block_cover_impossibility(3, 1, 1, 2)
        assert summary.impossible
        assert summary.valid_found == 0
        assert summary.collections_checked == 8

    def test_allowing_the_full_block_restores_covers(self):
        summary = block_cover_impossibility(3, 1, 1, 3)
        assert not summary.impossible
        assert summary.valid_found >= 1

    @pytest.mark.parametrize(
        "m,s,t,b",
        [
            (3, 1, 1, 3), (4, 1, 1, 2), (4, 1, 1, 3), (4, 1, 2, 3), (4, 2, 1, 3),
            (5, 1, 1, 2), (5, 1, 2, 2), (5, 2, 1, 3), (5, 3, 1, 4), (6, 4, 1, 5),
        ],
    )
    def test_counts_match_checking_each_collection(self, m, s, t, b):
        # the count skips P2 on its candidates, which pass it by construction;
        # each collection is also checked by the reference, which shares no
        # code with the counter
        candidates = [
            frozenset(c)
            for size in range(s + 1, b + 1)
            for c in itertools.combinations(range(m), size)
        ]
        valid = 0
        for r in range(len(candidates) + 1):
            for picked in itertools.combinations(candidates, r):
                ok = check_block_cover(BlockCover(m, s, t, picked)).ok
                assert ok == (reference_cover_check(m, s, t, picked) is None)
                valid += ok
        summary = block_cover_impossibility(m, s, t, b)
        assert summary.collections_checked == 1 << len(candidates)
        assert summary.valid_found == valid

    def test_certifies_every_critical_case_up_to_eight_messages(self):
        # m = 2s + t with blocks of size s+1 .. m-1: the paper's critical
        # case, far past what checking each collection could reach
        cases = [(2 * s + t, s, t) for s in range(1, 4) for t in range(1, 9 - 2 * s)]
        assert len(cases) == 12
        for m, s, t in cases:
            candidates = sum(math.comb(m, k) for k in range(s + 1, m))
            summary = block_cover_impossibility(m, s, t, m - 1, collection_cap=1 << candidates)
            assert summary.collections_checked == 1 << candidates
            assert summary.valid_found == 0, (m, s, t)

    @pytest.mark.parametrize("m,s,t,b", [(3, 5, 1, 2), (3, 3, 1, 3), (3, 1, 0, 2), (0, 0, 1, 1)])
    def test_rejects_parameters_without_a_cover_question(self, m, s, t, b):
        with pytest.raises(ValueError, match="0 <= s < m and t >= 1"):
            block_cover_impossibility(m, s, t, b)

    def test_s_zero_is_accepted(self):
        # the empty 0-subset needs some block, and no picked blocks may be
        # disjoint: {0}, {1}, {0, 1}, {0} + {0, 1} and {1} + {0, 1}
        summary = block_cover_impossibility(2, 0, 1, 2)
        assert (summary.collections_checked, summary.valid_found) == (8, 5)
        assert check_block_cover(BlockCover(2, 0, 1, ())).failed_property == "P1"

    def test_collection_cap(self):
        with pytest.raises(CapExceeded):
            block_cover_impossibility(6, 1, 1, 3, collection_cap=100)

    def test_huge_collection_count_is_refused_before_any_work(self):
        # 616,645 candidate blocks: 2^616645 collections, a number whose
        # decimal form is past the interpreter's 4300-digit limit
        blocks = sum(math.comb(20, k) for k in range(2, 11))
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as exc:
            block_cover_impossibility(20, 1, 1, 10)
        assert time.perf_counter() - start < 0.1
        assert exc.value.size == 1 << blocks
        assert str(exc.value) == f"block collections: size 2^{blocks} exceeds cap {oracles.DEFAULT_COLLECTION_CAP}"

    def test_huge_size_is_named_by_its_power_of_two(self):
        exc = CapExceeded("things", 3 << 20000, 1 << 70)
        assert str(exc) == "things: size over 2^20001 exceeds cap 2^70"
        assert (exc.size, exc.cap) == (3 << 20000, 1 << 70)
