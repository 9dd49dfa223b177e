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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded

DEFAULT_COLLECTION_CAP = 10**6


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
    scale = math.lcm(*(len(b) for b in bl))
    weight = [0] * ground_size
    for b in bl:
        w = scale // len(b)
        for v in b:
            weight[v] += w
    j = max(range(ground_size), key=lambda v: weight[v])
    # total weight is len(bl) * scale, so the best column reaches the average
    assert weight[j] * ground_size >= len(bl) * scale
    i = min((k for k in range(len(bl)) if j in bl[k]), key=lambda k: (len(bl[k]), k))
    c_j = sum(1 for b in bl if j in b)
    assert c_j * ground_size >= len(bl) * len(bl[i])
    return i, j


@dataclass(frozen=True)
class AveragingSuiteSummary:
    trials: int
    seed: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def random_averaging_suite(
    trials: int, seed: int, x_max: int = 8, y_max: int = 8
) -> AveragingSuiteSummary:
    """Random nonempty block families, each checked against the pair bound."""
    import random

    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        y = rng.randint(1, y_max)
        x = rng.randint(1, x_max)
        blocks = []
        for _ in range(x):
            size = rng.randint(1, y)
            blocks.append(frozenset(rng.sample(range(y), size)))
        i, j = averaging_pair(blocks, y)
        c_j = sum(1 for b in blocks if j in b)
        if j not in blocks[i] or c_j * y < x * len(blocks[i]):
            failures += 1
    return AveragingSuiteSummary(trials, seed, failures)


# ---------- intersection families ----------


def verify_intersection_witness(
    blocks: Sequence[frozenset[int]], witness: Sequence[int]
) -> bool:
    """Does the index set pick blocks meeting in exactly |witness| - 1 elements?"""
    picked = list(witness)
    if not picked or len(set(picked)) != len(picked):
        return False
    if any(p < 0 or p >= len(blocks) for p in picked):
        return False
    inter = frozenset(blocks[picked[0]])
    for p in picked[1:]:
        inter &= blocks[p]
    return len(inter) == len(picked) - 1


def intersection_family_witness(
    blocks: Sequence[frozenset[int]], ground_size: int
) -> tuple[int, ...]:
    """A nonempty index set P with |intersection over P| = |P| - 1.

    Takes ground_size + 1 subsets of range(ground_size).  Recursive
    construction: an empty block is its own witness; otherwise pivot on the
    averaging pair (i, j), relabel so block i becomes an initial segment
    with j at its top, and recurse on the trace of the other blocks through
    block i below the pivot.
    """
    s = ground_size
    bl = [frozenset(b) for b in blocks]
    if len(bl) != s + 1:
        raise ValueError("need exactly ground_size + 1 blocks")
    if any(v < 0 or v >= s for b in bl for v in b):
        raise ValueError("block element outside the ground set")

    witness = _witness_recursive(bl, s)
    assert verify_intersection_witness(bl, witness)
    return witness


def _witness_recursive(bl: list[frozenset[int]], s: int) -> tuple[int, ...]:
    for i, b in enumerate(bl):
        if not b:
            return (i,)
    if s == 1:
        # both blocks are {0}
        return (0, 1)
    i, j_elem = averaging_pair(bl, s)
    j = len(bl[i])
    # relabel the ground set: block i becomes {0 .. j-1} with j_elem -> j-1
    inside = sorted(bl[i] - {j_elem}) + [j_elem]
    outside = sorted(frozenset(range(s)) - bl[i])
    relabel = {old: new for new, old in enumerate(inside + outside)}
    others = sorted(k for k in range(len(bl)) if k != i and j_elem in bl[k])
    assert len(others) >= j, "pivot column count below block size"
    chosen = others[:j]
    sub = [
        frozenset(relabel[v] for v in (bl[k] & bl[i]) if v != j_elem)
        for k in chosen
    ]
    sub_p = _witness_recursive(sub, j - 1)
    return tuple(sorted({i} | {chosen[p] for p in sub_p}))


def brute_intersection_family_witness(
    blocks: Sequence[frozenset[int]], ground_size: int
) -> tuple[int, ...] | None:
    """Smallest witness by exhaustive search over nonempty index sets."""
    idx = range(len(blocks))
    for size in range(1, len(blocks) + 1):
        for picked in itertools.combinations(idx, size):
            if verify_intersection_witness(blocks, picked):
                return picked
    return None


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
    bits = [frozenset(v for v in range(s) if mask >> v & 1) for mask in range(1 << s)]
    orderings = math.factorial(s + 1)
    families = keys = failures = 0
    for fam in itertools.combinations_with_replacement(range(1, 1 << s), s + 1):
        weight = orderings
        for c in map(fam.count, set(fam)):
            weight //= math.factorial(c)
        families += weight
        keys += 1
        witness = intersection_family_witness([bits[mask] for mask in fam], s)
        inter = fam[witness[0]]
        for p in witness[1:]:
            inter &= fam[p]
        if len(set(witness)) != len(witness) or inter.bit_count() != len(witness) - 1:
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


def _p3_violation(
    blocks: tuple[frozenset[int], ...], s: int, t: int
) -> tuple[int, ...] | None:
    """A nonempty index set whose intersection size lands in [s : s+t-1].

    Prunes once an intersection drops below s; adding blocks only shrinks it.
    """

    def dfs(start: int, cur: frozenset[int] | None, picked: tuple[int, ...]):
        if cur is not None:
            if s <= len(cur) <= s + t - 1:
                return picked
            if len(cur) < s:
                return None
        for k in range(start, len(blocks)):
            found = dfs(k + 1, blocks[k] if cur is None else cur & blocks[k], picked + (k,))
            if found is not None:
                return found
        return None

    return dfs(0, None, ())


def check_block_cover(cover: BlockCover) -> CoverCheck:
    """All three cover properties, reporting the first failure."""
    m, s, t = cover.m, cover.s, cover.t
    for b in cover.blocks:
        if any(v < 0 or v >= m for v in b):
            return CoverCheck(False, "P2", f"block {sorted(b)} leaves the ground set")
        if not (s < len(b) <= m):
            return CoverCheck(False, "P2", f"block size {len(b)} outside ({s}, {m}]")
    for sub in itertools.combinations(range(m), s):
        if not any(frozenset(sub) <= b for b in cover.blocks):
            return CoverCheck(False, "P1", f"subset {list(sub)} uncovered")
    bad = _p3_violation(cover.blocks, s, t)
    if bad is not None:
        inter = frozenset(range(m))
        for k in bad:
            inter &= cover.blocks[k]
        return CoverCheck(
            False, "P3", f"blocks {list(bad)} meet in {len(inter)} elements"
        )
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
    """Try every collection of admissible blocks; count the valid covers.

    Admissible blocks have size in (s, max_block_size].  A count of zero
    valid covers certifies that bounded-size covers cannot exist.
    """
    candidates = [
        frozenset(c)
        for size in range(s + 1, max_block_size + 1)
        for c in itertools.combinations(range(m), size)
    ]
    total = 1 << len(candidates)
    if total > collection_cap:
        raise CapExceeded("block collections", total, collection_cap)
    checked = 0
    valid = 0
    for r in range(len(candidates) + 1):
        for picked in itertools.combinations(candidates, r):
            checked += 1
            if check_block_cover(BlockCover(m, s, t, tuple(picked))).ok:
                valid += 1
    return ImpossibilitySummary(m, s, t, max_block_size, checked, valid)
