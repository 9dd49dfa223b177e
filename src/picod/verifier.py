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

The exhaustive code search uses the same fact: how many messages a user
decodes depends only on the multiset of the code's columns at the messages
it lacks.  It places a code's columns depth first and checks each user once
its last unknown column is placed, one elimination per distinct multiset.
A complete-S instance is mapped to itself by every message permutation, so
only [I_ell | P] with P's columns nondecreasing is tried: a rank-ell code
with an information set moved to the front, reduced and sorted.  Other
instances take columns in reduced echelon order, each the next pivot or a
value below q**rank, meeting every row space once.  A rank-deficient code
has a shorter basis, tried at a smaller length.

An `Instance` is valid by construction, so only `decodable_closure`, which
takes any `known`, range-checks its argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

from .coding import LinearCode
from .errors import SearchOverflow
from .instance import Assignment, Instance, complete_s_sizes


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

    def assignment(self, t: int) -> Assignment:
        """The t lexicographically smallest decoded messages of every user."""
        return tuple(frozenset(sorted(u.decoded)[:t]) for u in self.per_user)

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
    return report.assignment(inst.t)


# ---------- exhaustive search, column by column ----------


def _rows(cols: Sequence[int], ell: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The ell rows whose column j has the base-q digit r of cols[j] in row r."""
    return tuple(tuple(v // q**r % q for v in cols) for r in range(ell))


DEFAULT_CODE_NODE_CAP = 10**6


def min_linear_length_exhaustive(
    inst: Instance,
    q: int = 2,
    ell_max: int | None = None,
    node_cap: int = DEFAULT_CODE_NODE_CAP,
) -> tuple[int, LinearCode] | None:
    """Smallest number of rows of any valid GF(q) code, by the column search
    of the module docstring; a column is an int whose base-q digit r is its
    entry in row r.  Returns (length, witness code) or None when nothing up
    to ell_max works.  Each placed column spends one of node_cap nodes; past
    them SearchOverflow's `proven` is the length being tried, as every
    shorter one is refuted.
    """
    m = inst.m
    ell_max = m if ell_max is None else ell_max
    complete = bool(complete_s_sizes(inst))
    full = (1 << m) - 1
    checks: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for u in {full & ~a for a in inst.masks}:
        checks[u.bit_length() - 1].append(tuple(c for c in range(m) if u >> c & 1))
    budget = node_cap
    cols = [0] * m
    # sorted unknown columns -> served; one memo for every length, as a value
    # below q**ell has only zero digits in the rows past ell
    served: dict[tuple[int, ...], bool] = {}

    for ell in range(min(ell_max, m) + 1):

        def serves(unknown: tuple[int, ...]) -> bool:
            key = tuple(sorted(map(cols.__getitem__, unknown)))
            if key not in served:
                small = LinearCode(q, len(key), _rows(key, ell, q))
                served[key] = len(decodable_closure(small, 0)) >= inst.t
            return served[key]

        def place(j: int, rank: int) -> bool:
            nonlocal budget
            if j == m:
                return True
            values = [q**rank] if rank < ell else []
            # a free column once the pivots are placed (complete-S), or while
            # the columns left can still reach rank ell (echelon order)
            if (rank == ell) if complete else (m - j > ell - rank):
                values += range(cols[j - 1] if complete and j > ell else 0, q**rank)
            for v in values:
                if budget <= 0:
                    raise SearchOverflow(f"code search exceeded {node_cap} placed columns", proven=ell)
                budget -= 1
                cols[j] = v
                failed = next((i for i, u in enumerate(checks[j]) if not serves(u)), -1)
                if failed >= 0:  # check it first at this column's next value
                    checks[j].insert(0, checks[j].pop(failed))
                elif place(j + 1, rank + (v >= q**rank)):
                    return True
            return False

        if place(0, 0):
            return ell, LinearCode(q, m, _rows(cols, ell, q))
    return None
