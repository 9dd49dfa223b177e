"""Averaging pairs, intersection-family witnesses, and block covers."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from picod import oracles
from picod.errors import CapExceeded
from picod.oracles import (
    BlockCover,
    SweepSummary,
    block_cover_impossibility,
    brute_intersection_family_witness,
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
        real = oracles._pair
        seen = []

        def recording(masks, ground):
            seen.append((list(masks), ground))
            return real(masks, ground)

        monkeypatch.setattr(oracles, "_pair", recording)
        assert sweep_intersection_families(3).ok
        assert seen
        for masks, ground in seen:
            # the recursion narrows the ground mask instead of relabeling, so
            # columns outside it weigh 0 and never win the comparison
            blocks = [frozenset(v for v in range(3) if b >> v & 1) for b in masks]
            assert real(masks, ground) == fraction_averaging_pair(blocks, 3)


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
            shortest = brute_intersection_family_witness(blocks, 4)
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
            if brute_intersection_family_witness(list(family), s) is None:
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
        "m,s,t,b", [(3, 1, 1, 3), (4, 1, 1, 2), (4, 1, 2, 3), (4, 2, 1, 3), (5, 3, 1, 4)]
    )
    def test_counts_match_checking_each_collection(self, m, s, t, b):
        # the sweep skips P2 on its candidates, which pass it by construction
        candidates = [
            frozenset(c)
            for size in range(s + 1, b + 1)
            for c in itertools.combinations(range(m), size)
        ]
        valid = sum(
            check_block_cover(BlockCover(m, s, t, picked)).ok
            for r in range(len(candidates) + 1)
            for picked in itertools.combinations(candidates, r)
        )
        summary = block_cover_impossibility(m, s, t, b)
        assert summary.collections_checked == 1 << len(candidates)
        assert summary.valid_found == valid

    def test_collection_cap(self):
        with pytest.raises(CapExceeded):
            block_cover_impossibility(6, 1, 1, 3, collection_cap=100)
