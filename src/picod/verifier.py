"""Decide whether a broadcast code satisfies every user of an instance.

A user that knows the messages in K can decode message d from code X when
the unit vector e_d lies in span(rows of X, {e_a : a in K}).  One elimination
finds every such d at once: a decoded e_d already lies in that span, so
adding it as side information leaves the span, and what it decodes, unchanged.
A column outside the code's support is all zero: it is never a pivot, so
never decoded, and dropping it from K leaves the projected row space as it
is.  Users with the same `known & support` thus share one elimination, the
same for every field: XOR on int row masks over GF(2), arithmetic mod q on
coefficient lists otherwise.  `known` is that memo key, an int mask.

An `Instance` is valid by construction, so only `decodable_closure`, which
takes any `known`, range-checks its argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from typing import Iterator

from .coding import LinearCode
from .errors import SearchOverflow
from .instance import Assignment, Instance


def decodable_closure(code: LinearCode, known: int) -> frozenset[int]:
    """All messages outside the mask `known` (bit x = message x) that the
    user can decode.

    The rows, projected onto the unknown columns, are reduced into `basis`:
    it maps each pivot column to a row that is 1 there and 0 at every other
    pivot, the unique reduced echelon form of the projected row space.  A
    vector of that space is the sum of the basis rows weighted by its pivot
    entries, so e_d lies in it exactly when the row of pivot d has no other
    nonzero entry.  The result is closed: a decoded e_d is already in
    span(X, e_K), so knowing d as well decodes nothing new.
    """
    if known < 0 or known >> code.m:
        raise ValueError("known message outside column range")
    if code.q == 2:
        # a row is its support mask, and its pivot is its lowest unknown bit
        basis: dict[int, int] = {}
        for r in code.masks:
            r &= ~known
            for bit, b in basis.items():
                if r & bit:
                    r ^= b
            if r:
                bit = r & -r
                for c, b in basis.items():
                    if b & bit:
                        basis[c] = b ^ r
                basis[bit] = r
        return frozenset(bit.bit_length() - 1 for bit, r in basis.items() if r == bit)
    q = code.q
    unknown = [c for c in range(code.m) if not known >> c & 1]
    basis: dict[int, list[int]] = {}
    for row in code.rows:
        r = [row[c] for c in unknown]
        for p, b in basis.items():
            if f := r[p]:
                r = [(x - f * y) % q for x, y in zip(r, b)]
        p = next((i for i, x in enumerate(r) if x), -1)
        if p >= 0:
            inv = pow(r[p], -1, q)
            r = [x * inv % q for x in r]
            for c, b in basis.items():
                if f := b[p]:
                    basis[c] = [(x - f * y) % q for x, y in zip(b, r)]
            basis[p] = r
    return frozenset(unknown[p] for p, r in basis.items() if r.count(0) == len(r) - 1)


@dataclass(frozen=True)
class UserDecoding:
    known: frozenset[int]
    decoded: frozenset[int]


@dataclass(frozen=True)
class DecodabilityReport:
    valid: bool
    per_user: tuple[UserDecoding, ...]

    def wire(self) -> dict:
        return {
            "valid": self.valid,
            "per_user": [
                {
                    "A": sorted(x + 1 for x in u.known),
                    "B": sorted(x + 1 for x in u.decoded),
                }
                for u in self.per_user
            ],
        }


def _closures(code: LinearCode, inst: Instance) -> Iterator[frozenset[int]]:
    """Each user's decoded set, one elimination per `known & support`."""
    support = reduce(int.__or__, code.masks, 0)
    memo: dict[int, frozenset[int]] = {}
    for mask in inst.masks:
        if (key := mask & support) not in memo:
            memo[key] = decodable_closure(code, key)
        yield memo[key]


def _satisfies(code: LinearCode, inst: Instance) -> bool:
    """Validity check with early exit, no report construction."""
    return all(len(d) >= inst.t for d in _closures(code, inst))


def is_valid(code: LinearCode, inst: Instance) -> DecodabilityReport:
    """Closure of every user, and whether each decodes at least t messages.

    Zero columns are never decoded and leave the span as it is, so users
    with the same `known & support(code)` share one elimination.
    """
    if code.m != inst.m:
        raise ValueError(f"code width {code.m} != instance m {inst.m}")
    per_user = tuple(UserDecoding(a, d) for a, d in zip(inst.users, _closures(code, inst)))
    valid = all(len(u.decoded) >= inst.t for u in per_user)
    return DecodabilityReport(valid, per_user)


def induced_assignment(code: LinearCode, inst: Instance) -> Assignment:
    """The t lexicographically smallest decoded messages of every user.

    Only defined for valid codes; raises ValueError otherwise.
    """
    report = is_valid(code, inst)
    if not report.valid:
        raise ValueError("code does not satisfy every user")
    return tuple(frozenset(sorted(u.decoded)[: inst.t]) for u in report.per_user)


# ---------- exhaustive search over row spaces ----------


def iter_row_spaces(m: int, ell: int, q: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """One canonical reduced-echelon basis per ell-dimensional row space."""
    if ell == 0:
        yield ()
        return
    for pivots in combinations(range(m), ell):
        pivot_set = set(pivots)
        free = [
            (r, c)
            for r in range(ell)
            for c in range(pivots[r] + 1, m)
            if c not in pivot_set
        ]
        base = [[0] * m for _ in range(ell)]
        for r, p in enumerate(pivots):
            base[r][p] = 1
        for fill in product(range(q), repeat=len(free)):
            rows = [list(row) for row in base]
            for (r, c), v in zip(free, fill):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


DEFAULT_CODE_NODE_CAP = 10**6


def min_linear_length_exhaustive(
    inst: Instance,
    q: int = 2,
    ell_max: int | None = None,
    node_cap: int = DEFAULT_CODE_NODE_CAP,
) -> tuple[int, LinearCode] | None:
    """Smallest number of rows of any valid GF(q) code, by trying every row
    space of each dimension in increasing order.

    Returns (length, witness code) or None when nothing up to ell_max works.
    Each code tried spends one of node_cap nodes; past them SearchOverflow's
    `proven` is the length being tried, as every shorter one is refuted.
    """
    if ell_max is None:
        ell_max = inst.m
    budget = node_cap
    for ell in range(0, min(ell_max, inst.m) + 1):
        for rows in iter_row_spaces(inst.m, ell, q):
            if budget <= 0:
                raise SearchOverflow(f"code search exceeded {node_cap} candidate codes", proven=ell)
            budget -= 1
            code = LinearCode(q, inst.m, rows)
            if _satisfies(code, inst):
                return ell, code
    return None
