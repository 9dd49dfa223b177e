"""Combinatorial machinery behind the converse arguments.

Three independent pieces, each checked once, where it is reported: a
function that returns one witness or pair asserts it, a sweep or suite
counts the failures, and `check_block_cover` names the property that fails.

- intersection families: given s + 1 subsets of a ground set of size s,
  there is always a nonempty index set P whose blocks intersect in exactly
  |P| - 1 elements.  The constructive witness search and an exhaustive
  sweep live here.  A witness's existence does not depend on the order of
  the blocks, so the sweep checks each multiset of blocks once and counts
  it once per ordering.
- the averaging pair: for nonempty blocks over a ground set, some element
  j and some smallest block i containing it satisfy c_j * y >= x * |B_i|.
  This drives the recursion above; its column weights are exact integers.
- block covers: collections of message blocks that would have to exist if
  no user could decode s + t messages; checking the three cover properties
  and sweeping small parameter sets shows such covers cannot exist.

Public functions check their frozensets once; below them every set, the
ground set included, is an int bitmask, so the recursion narrows the
ground set instead of relabeling it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceeded

DEFAULT_COLLECTION_CAP = 10**6


def _mask(elements: Iterable[int]) -> int:
    return sum(1 << v for v in elements)


def _draw_table(y: int) -> list[int]:
    """Every nonempty subset of range(y), each k-subset lcm_k C(y, k) / C(y, k) times."""
    lcm = math.lcm(*(math.comb(y, k) for k in range(1, y + 1)))
    table = []
    for k in range(1, y + 1):
        table += [_mask(c) for c in itertools.combinations(range(y), k)] * (lcm // math.comb(y, k))
    return table


# _DRAW[y] for y <= 8: each size class holds 1/y of the entries and each of
# its subsets equally often, so one uniform choice draws a uniform size k and
# then a uniform k-subset (2,240 entries at y = 8)
_DRAW = [_draw_table(y) for y in range(9)]


# ---------- averaging pair ----------


def averaging_pair(blocks: Sequence[frozenset[int]], ground_size: int) -> tuple[int, int]:
    """(i, j) with j in B_i and c_j * y >= x * |B_i|, for x blocks in range(y).

    j maximizes the column weight sum(1 / |B_k|) over blocks containing j,
    compared exactly as integers scaled by the lcm of the block sizes; i is a
    smallest block containing j.  The x blocks weigh x in all, so j weighs at
    least x / y, and each of its c_j blocks adds at most 1 / |B_i|.
    """
    bl = [frozenset(b) for b in blocks]
    if not bl:
        raise ValueError("need at least one block")
    if any(not b for b in bl):
        raise ValueError("blocks must be nonempty")
    if any(v < 0 or v >= ground_size for b in bl for v in b):
        raise ValueError("block element outside the ground set")
    i, j = _pair([_mask(b) for b in bl], (1 << ground_size) - 1)
    assert j in bl[i] and sum(j in b for b in bl) * ground_size >= len(bl) * len(bl[i])
    return i, j


def _pair(masks: Sequence[int], ground: int) -> tuple[int, int]:
    """averaging_pair on nonempty block masks in the ground mask; asserts the pigeonhole step."""
    sizes = [b.bit_count() for b in masks]
    scale = math.lcm(*sizes)
    weight = [0] * ground.bit_length()
    for b, n in zip(masks, sizes):
        w = scale // n
        while b:
            low = b & -b
            weight[low.bit_length() - 1] += w
            b ^= low
    # columns outside the ground weigh 0, below every column of a block
    best = max(weight)
    j = weight.index(best)
    # total weight is len(masks) * scale, so the best column reaches the average
    assert best * ground.bit_count() >= len(masks) * scale
    i, size = 0, scale + 1  # the first smallest block containing j; no block exceeds scale
    for k, (b, n) in enumerate(zip(masks, sizes)):
        if n < size and b >> j & 1:
            i, size = k, n
    return i, j


@dataclass(frozen=True)
class AveragingSuiteSummary:
    trials: int
    seed: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def random_averaging_suite(trials: int, seed: int) -> AveragingSuiteSummary:
    """Random families of nonempty blocks, each checked against the pair bound.

    The ground size y and block count x are uniform in 1..8, drawn together
    from one uniform number below 64; each block has a size k uniform in 1..y
    and is then a uniform k-subset of range(y), drawn at once from _DRAW[y].
    """
    import random

    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        r = rng.randrange(64)
        y = (r >> 3) + 1
        x = (r & 7) + 1
        draw = _DRAW[y]
        blocks = [rng.choice(draw) for _ in range(x)]
        i, j = _pair(blocks, (1 << y) - 1)
        c_j = sum(b >> j & 1 for b in blocks)
        failures += not blocks[i] >> j & 1 or c_j * y < x * blocks[i].bit_count()
    return AveragingSuiteSummary(trials, seed, failures)


# ---------- intersection families ----------


def verify_intersection_witness(
    blocks: Sequence[frozenset[int]], witness: Sequence[int]
) -> bool:
    """Does the index set pick blocks meeting in exactly |witness| - 1 elements?"""
    if any(p < 0 or p >= len(blocks) for p in witness):
        return False
    return _meets_exactly([_mask(b) for b in blocks], tuple(witness))


def _meets_exactly(masks: Sequence[int], witness: tuple[int, ...]) -> bool:
    """verify_intersection_witness for indices of masks, known in range."""
    inter = functools.reduce(int.__and__, (masks[p] for p in witness), -1)
    return 0 < len(witness) == len(set(witness)) and inter.bit_count() == len(witness) - 1


def intersection_family_witness(
    blocks: Sequence[frozenset[int]], ground_size: int
) -> tuple[int, ...]:
    """A nonempty index set P with |intersection over P| = |P| - 1.

    Takes ground_size + 1 subsets of range(ground_size).  Recursive
    construction: an empty block is its own witness; otherwise pivot on the
    averaging pair (i, j) and recurse on the traces of |B_i| other blocks
    containing j through B_i - {j}, which becomes the new ground set.
    """
    s = ground_size
    bl = [frozenset(b) for b in blocks]
    if len(bl) != s + 1:
        raise ValueError("need exactly ground_size + 1 blocks")
    if any(v < 0 or v >= s for b in bl for v in b):
        raise ValueError("block element outside the ground set")
    masks = [_mask(b) for b in bl]
    witness = _witness(masks, (1 << s) - 1)
    assert _meets_exactly(masks, witness)
    return witness


def _witness(masks: Sequence[int], ground: int) -> tuple[int, ...]:
    """intersection_family_witness on block masks inside the ground mask."""
    if 0 in masks:
        return (masks.index(0),)
    if ground.bit_count() == 1:
        # both blocks are the ground set
        return (0, 1)
    i, j = _pair(masks, ground)
    inner = masks[i] & ~(1 << j)
    chosen = [k for k, b in enumerate(masks) if k != i and b >> j & 1][: masks[i].bit_count()]
    assert len(chosen) == masks[i].bit_count(), "pivot column count below block size"
    sub_p = _witness([masks[k] & inner for k in chosen], inner)
    return tuple(sorted({i} | {chosen[p] for p in sub_p}))


@dataclass(frozen=True)
class SweepSummary:
    ground_size: int
    families: int
    distinct_keys: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def sweep_intersection_families(
    ground_size: int, collection_cap: int = DEFAULT_COLLECTION_CAP
) -> SweepSummary:
    """Check every ordered family of s + 1 nonempty subsets of range(s).

    Reordering the blocks relabels a witness's indices and leaves the
    intersection of the picked blocks unchanged, so an ordering has a witness
    exactly when its sorted form does.  The sweep therefore finds and
    re-verifies one witness per multiset of blocks (bitmasks), and weights it
    by the multiset's number of orderings, (s + 1)! / prod(c!) over the
    multiplicities c.  `families` counts the ordered families, (2^s - 1)^(s+1);
    `distinct_keys` counts the multisets, C(2^s + s - 1, s + 1); `failures`
    counts ordered families whose witness does not verify.

    Raises CapExceeded before any work when the multisets outnumber
    collection_cap.  Their count has about s^2 bits and exceeds 2^s once
    s >= 2, so once 2^s exceeds the cap the count is not computed: s itself
    is refused, against the largest ground size the cap admits.
    """
    s = ground_size
    if s < 1:
        raise ValueError("ground size must be positive")

    def multisets(g: int) -> int:
        return math.comb((1 << g) + g - 1, g + 1)

    if s >= max(2, collection_cap.bit_length()):
        largest = next(g for g in itertools.count() if multisets(g + 1) > collection_cap)
        raise CapExceeded("intersection sweep ground size", s, largest)
    if multisets(s) > collection_cap:
        raise CapExceeded("intersection multisets", multisets(s), collection_cap)
    orderings = math.factorial(s + 1)
    families = keys = failures = 0
    for fam in itertools.combinations_with_replacement(range(1, 1 << s), s + 1):
        weight = orderings
        for c in map(fam.count, set(fam)):
            weight //= math.factorial(c)
        families += weight
        keys += 1
        if not _meets_exactly(fam, _witness(fam, (1 << s) - 1)):
            failures += weight
    return SweepSummary(s, families, keys, failures)


# ---------- block covers ----------


@dataclass(frozen=True)
class BlockCover:
    m: int
    s: int
    t: int
    blocks: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class CoverCheck:
    ok: bool
    failed_property: str | None = None
    detail: str = ""


def _p3_add(meets: frozenset[int], b: int, s: int, t: int) -> tuple[frozenset[int], int | None]:
    """Add block b to a collection without a P3 violation.

    meets holds the distinct intersections of the collection's sub-collections
    that have at least s elements, -1 standing for the empty one.  Returns
    (the grown collection's meets, None), or (meets, x) for a stored meet x
    that b cuts to s..s+t-1 elements.  Meets below s only shrink as blocks
    join, so they are dropped; equal meets extend alike, so one is kept.
    """
    grown = []
    for x in meets:
        y = x & b
        n = y.bit_count()
        if n >= s:
            if n < s + t:
                return meets, x
            grown.append(y)
    return meets.union(grown), None


def _check_cover_params(m: int, s: int, t: int) -> None:
    if not (0 <= s < m and t >= 1):
        raise ValueError(f"block covers need 0 <= s < m and t >= 1, got m={m} s={s} t={t}")


def check_block_cover(cover: BlockCover) -> CoverCheck:
    """All three cover properties, reporting the first failure."""
    m, s, t = cover.m, cover.s, cover.t
    _check_cover_params(m, s, t)
    for b in cover.blocks:
        if any(v < 0 or v >= m for v in b):
            return CoverCheck(False, "P2", f"block {sorted(b)} leaves the ground set")
        if not (s < len(b) <= m):
            return CoverCheck(False, "P2", f"block size {len(b)} outside ({s}, {m}]")
    masks = [_mask(b) for b in cover.blocks]
    for sub in itertools.combinations(range(m), s):
        want = _mask(sub)
        if not any(want & b == want for b in masks):
            return CoverCheck(False, "P1", f"subset {list(sub)} uncovered")
    meets = frozenset({-1})
    for k, b in enumerate(masks):
        meets, bad = _p3_add(meets, b, s, t)
        if bad is not None:
            # the earlier blocks that contain the meet `bad` intersect exactly in it
            picked = [j for j in range(k) if masks[j] & bad == bad] + [k]
            n = (bad & b).bit_count()
            return CoverCheck(False, "P3", f"blocks {picked} meet in {n} elements")
    return CoverCheck(True)


@dataclass(frozen=True)
class ImpossibilitySummary:
    m: int
    s: int
    t: int
    max_block_size: int
    collections_checked: int
    valid_found: int

    @property
    def impossible(self) -> bool:
        return self.valid_found == 0


def block_cover_impossibility(
    m: int,
    s: int,
    t: int,
    max_block_size: int,
    collection_cap: int = DEFAULT_COLLECTION_CAP,
) -> ImpossibilitySummary:
    """Count the collections of admissible blocks that are valid covers.

    Admissible blocks have size in (s, max_block_size] and pass P2 by
    construction.  P3 passes to sub-collections, so a depth-first walk
    extends only collections without a P3 violation, in candidate order, and
    counts each that covers every s-subset (P1); every other collection
    fails P3 through one of its prefixes.  `collections_checked` is all
    2^|candidates| collections, each accounted for, and a count of zero
    valid covers certifies that bounded-size covers cannot exist.  Raises
    CapExceeded, before any block is built, when the collections outnumber
    collection_cap.
    """
    _check_cover_params(m, s, t)
    sizes = range(s + 1, min(max_block_size, m) + 1)
    total = 1 << sum(math.comb(m, size) for size in sizes)
    if total > collection_cap:
        raise CapExceeded("block collections", total, collection_cap)
    candidates = [_mask(c) for size in sizes for c in itertools.combinations(range(m), size)]
    subsets = [_mask(c) for c in itertools.combinations(range(m), s)]
    # covers[i]: the s-subsets inside candidate i, as a mask over `subsets`
    covers = [sum(1 << j for j, w in enumerate(subsets) if w & b == w) for b in candidates]
    everything = (1 << len(subsets)) - 1
    valid = 0
    stack = [(0, frozenset({-1}), 0)]
    while stack:
        start, meets, covered = stack.pop()
        valid += covered == everything
        for i in range(start, len(candidates)):
            grown, bad = _p3_add(meets, candidates[i], s, t)
            if bad is None:
                stack.append((i + 1, grown, covered | covers[i]))
    return ImpossibilitySummary(m, s, t, max_block_size, total, valid)
