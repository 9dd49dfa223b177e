"""Decide whether a broadcast code satisfies every user of an instance.

A user that knows the messages in K can decode message d from code X when
the unit vector e_d lies in span(rows of X, {e_a : a in K}).  One elimination
finds every such d at once: a decoded e_d already lies in that span, so
adding it as side information leaves the span, and what it decodes, unchanged.
A column outside the code's support is all zero: it is never a pivot, so
never decoded, and dropping it from K leaves the projected row space as it
is.  Users with the same `known & support` thus share one elimination.
Over GF(2) that elimination XORs int row masks into a fully reduced basis,
whose unit rows are those of the unique reduced echelon form `gf_rref` finds.

An `Instance` is valid by construction, so only `decodable_closure`, which
takes any `known`, range-checks its argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from typing import Iterator

from .coding import LinearCode, gf_rref
from .errors import CapExceeded
from .instance import Assignment, Instance


def decodable_closure(code: LinearCode, known: frozenset[int]) -> frozenset[int]:
    """All messages outside `known` that the user can decode.

    Projecting the rows onto the unknown columns turns the span test into a
    membership test in the projected row space, where a unit vector lies
    exactly when it is a row of the reduced echelon form.  The result is
    closed: a decoded e_d is already in span(X, e_K), so knowing d as well
    decodes nothing new, and one elimination suffices.  Over GF(2), `basis`
    maps each pivot bit (the lowest unknown bit of its row) to that row, kept
    clear at every other pivot bit: the unique reduced echelon form, so
    `r == bit` is the `gf_rref` route's unit-row test.
    """
    if known and (min(known) < 0 or max(known) >= code.m):
        raise ValueError("known message outside column range")
    if code.q == 2:
        unknown_mask = ~sum(1 << x for x in known)
        basis: dict[int, int] = {}
        for r in code.masks:
            r &= unknown_mask
            for bit, b in basis.items():
                if r & bit:
                    r ^= b
            if r:
                bit = r & -r
                basis = {c: b ^ r if b & bit else b for c, b in basis.items()}
                basis[bit] = r
        return frozenset(bit.bit_length() - 1 for bit, r in basis.items() if r == bit)
    unknown = [c for c in range(code.m) if c not in known]
    projected = [[row[c] for c in unknown] for row in code.rows]
    rref, pivots = gf_rref(projected, code.q)
    return frozenset(unknown[p] for r, p in zip(rref, pivots) if not any(r[p + 1 :]))


@dataclass(frozen=True)
class UserDecoding:
    known: frozenset[int]
    decoded: frozenset[int]


@dataclass(frozen=True)
class DecodabilityReport:
    t: int
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
    for a, mask in zip(inst.users, inst.masks):
        if (key := mask & support) not in memo:
            memo[key] = decodable_closure(code, a)
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
    return DecodabilityReport(inst.t, valid, per_user)


def induced_assignment(code: LinearCode, inst: Instance) -> Assignment:
    """The t lexicographically smallest decoded messages of every user.

    Only defined for valid codes; raises ValueError otherwise.
    """
    report = is_valid(code, inst)
    if not report.valid:
        raise ValueError("code does not satisfy every user")
    return tuple(frozenset(sorted(u.decoded)[: inst.t]) for u in report.per_user)


# ---------- exhaustive search over row spaces ----------


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^m."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


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


DEFAULT_SPACE_CAP = 10**6


def min_linear_length_exhaustive(
    inst: Instance,
    q: int = 2,
    ell_max: int | None = None,
    space_cap: int = DEFAULT_SPACE_CAP,
) -> tuple[int, LinearCode] | None:
    """Smallest number of rows of any valid GF(q) code, by trying every row
    space of each dimension in increasing order.

    Returns (length, witness code) or None when nothing up to ell_max works.
    """
    if ell_max is None:
        ell_max = inst.m
    for ell in range(0, min(ell_max, inst.m) + 1):
        count = gaussian_binomial(inst.m, ell, q)
        if count > space_cap:
            raise CapExceeded(f"row spaces of dimension {ell}", count, space_cap)
        for rows in iter_row_spaces(inst.m, ell, q):
            code = LinearCode(q, inst.m, rows)
            if _satisfies(code, inst):
                return ell, code
    return None
