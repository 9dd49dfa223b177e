"""Combinatorial machinery behind the converse arguments.

Three independent pieces:

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


# ---------- averaging pair ----------


def averaging_pair(blocks: Sequence[frozenset[int]], ground_size: int) -> tuple[int, int]:
    """(i, j) with j in B_i and c_j * ground_size >= len(blocks) * |B_i|.

    j maximizes the column weight sum(1 / |B_k|) over blocks containing j,
    compared exactly as integers scaled by the lcm of the block sizes; i is a
    smallest block containing j.
    """
    bl = [frozenset(b) for b in blocks]
    if not bl:
        raise ValueError("need at least one block")
    if any(not b for b in bl):
        raise ValueError("blocks must be nonempty")
    if any(v < 0 or v >= ground_size for b in bl for v in b):
        raise ValueError("block element outside the ground set")
    return _pair([_mask(b) for b in bl], (1 << ground_size) - 1)


def _pair(masks: Sequence[int], ground: int) -> tuple[int, int]:
    """averaging_pair on nonempty block masks inside the ground mask."""
    sizes = [b.bit_count() for b in masks]
    scale = math.lcm(*sizes)
    weight = [0] * ground.bit_length()
    for b, n in zip(masks, sizes):
        while b:
            low = b & -b
            weight[low.bit_length() - 1] += scale // n
            b ^= low
    # columns outside the ground weigh 0, below every column of a block
    j = max(range(len(weight)), key=weight.__getitem__)
    # total weight is len(masks) * scale, so the best column reaches the average
    y = ground.bit_count()
    assert weight[j] * y >= len(masks) * scale
    size, i = min((n, k) for k, (b, n) in enumerate(zip(masks, sizes)) if b >> j & 1)
    c_j = sum(b >> j & 1 for b in masks)
    assert c_j * y >= len(masks) * size
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
    """Random families of 1 to 8 nonempty blocks over a ground set of 1 to 8
    elements, each checked against the pair bound."""
    import random

    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        y = rng.randint(1, 8)
        x = rng.randint(1, 8)
        blocks = [_mask(rng.sample(range(y), rng.randint(1, y))) for _ in range(x)]
        i, j = _pair(blocks, (1 << y) - 1)
        c_j = sum(b >> j & 1 for b in blocks)
        if not blocks[i] >> j & 1 or c_j * y < x * blocks[i].bit_count():
            failures += 1
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


def sweep_intersection_families(ground_size: int) -> SweepSummary:
    """Check every ordered family of s + 1 nonempty subsets of range(s).

    Reordering the blocks relabels a witness's indices and leaves the
    intersection of the picked blocks unchanged, so an ordering has a witness
    exactly when its sorted form does.  The sweep therefore finds and
    re-verifies one witness per multiset of blocks (bitmasks), and weights it
    by the multiset's number of orderings, (s + 1)! / prod(c!) over the
    multiplicities c.  `families` counts the ordered families, (2^s - 1)^(s+1);
    `distinct_keys` counts the multisets; `failures` counts ordered families
    whose witness does not verify.
    """
    s = ground_size
    if s < 1:
        raise ValueError("ground size must be positive")
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


def _p3_violation(masks: Sequence[int], s: int, t: int) -> tuple[int, ...] | None:
    """A nonempty index set whose intersection size lands in [s : s+t-1].

    Prunes once an intersection drops below s; adding blocks only shrinks it.
    """

    def dfs(start: int, cur: int, picked: tuple[int, ...]):
        if picked:
            size = cur.bit_count()
            if s <= size <= s + t - 1:
                return picked
            if size < s:
                return None
        for k in range(start, len(masks)):
            found = dfs(k + 1, cur & masks[k], picked + (k,))
            if found is not None:
                return found
        return None

    return dfs(0, -1, ())


def _cover_check(masks: Sequence[int], subsets: Sequence[int], s: int, t: int) -> CoverCheck:
    """P1, then P3, on block masks that pass P2; subsets are the masks of the
    s-subsets of the ground set, in lexicographic order."""
    for want in subsets:
        if not any(want & b == want for b in masks):
            sub = [v for v in range(want.bit_length()) if want >> v & 1]
            return CoverCheck(False, "P1", f"subset {sub} uncovered")
    bad = _p3_violation(masks, s, t)
    if bad is not None:
        inter = functools.reduce(int.__and__, (masks[k] for k in bad))
        return CoverCheck(False, "P3", f"blocks {list(bad)} meet in {inter.bit_count()} elements")
    return CoverCheck(True)


def check_block_cover(cover: BlockCover) -> CoverCheck:
    """All three cover properties, reporting the first failure."""
    m, s, t = cover.m, cover.s, cover.t
    for b in cover.blocks:
        if any(v < 0 or v >= m for v in b):
            return CoverCheck(False, "P2", f"block {sorted(b)} leaves the ground set")
        if not (s < len(b) <= m):
            return CoverCheck(False, "P2", f"block size {len(b)} outside ({s}, {m}]")
    subsets = [_mask(c) for c in itertools.combinations(range(m), s)]
    return _cover_check([_mask(b) for b in cover.blocks], subsets, s, t)


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
    """Try every collection of admissible blocks; count the valid covers.

    Admissible blocks have size in (s, max_block_size] and pass P2 by
    construction.  A count of zero valid covers certifies that bounded-size
    covers cannot exist.
    """
    candidates = [
        _mask(c)
        for size in range(s + 1, max_block_size + 1)
        for c in itertools.combinations(range(m), size)
    ]
    total = 1 << len(candidates)
    if total > collection_cap:
        raise CapExceeded("block collections", total, collection_cap)
    subsets = [_mask(c) for c in itertools.combinations(range(m), s)]
    checked = 0
    valid = 0
    for r in range(len(candidates) + 1):
        for picked in itertools.combinations(candidates, r):
            checked += 1
            if _cover_check(picked, subsets, s, t).ok:
                valid += 1
    return ImpossibilitySummary(m, s, t, max_block_size, checked, valid)
