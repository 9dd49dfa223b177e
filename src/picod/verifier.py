"""Decide whether a broadcast code satisfies every user of an instance.

A user that knows the messages in K can decode message d from code X when
the unit vector e_d lies in span(rows of X, {e_a : a in K}), that is, in the
row space of X restricted to the columns U it lacks.  That row space is
orthogonal to every dependency among those columns, so d is decoded exactly
when column d is outside the span of the others in U: a coloop of their
column matroid.  A decoded e_d already lies in the span, so knowing d
decodes nothing new.  `_insert` places one column at a time, the same for
every field: XOR on int columns over GF(2), arithmetic mod q on lists
otherwise.  A column outside the code's support is zero, in no circuit with
others, so users with the same `known & support` share one walk over the
rest; `is_valid` places each distinct prefix of those walks once.

The exhaustive code search uses the same fact: how many messages a user
decodes depends only on the multiset of the code's columns at the messages
it lacks.  It places a code's columns depth first and checks each user once
its last unknown column is placed, one walk per distinct multiset.
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
from typing import Iterable, Iterator, Sequence

from .coding import LinearCode
from .errors import SearchOverflow
from .instance import Assignment, Instance


def _insert(state: tuple[tuple, int], c: int, g: int | list[int], q: int) -> tuple[tuple, int]:
    """Place column c, entries g, into (basis, coloops) of the columns placed
    so far.  A basis vector is reduced at the pivots before it and carries
    the combination of basis columns it equals: an int mask over GF(2), else
    its list's tail, one entry per basis vector.  An independent g is a
    coloop; a dependent g is not, nor is any column its combination uses."""
    basis, coloops = state
    if q == 2:
        comb = 1 << c
        for p, v, k in basis:
            if g & p:
                g ^= v
                comb ^= k
        if g:
            return basis + ((g & -g, g, comb),), coloops | 1 << c
        return basis, coloops & ~comb
    ell = len(g)
    r = g + [0] * ell
    for p, v, _ in basis:
        if f := r[p]:
            r = [(x - f * y) % q for x, y in zip(r, v)]
    for p in range(ell):
        if r[p]:
            break
    else:
        return basis, coloops & ~sum(1 << k for x, (_, _, k) in zip(r[ell:], basis) if x)
    r[ell + len(basis)] = 1
    inv = pow(r[p], -1, q)
    return basis + ((p, [x * inv % q for x in r], c),), coloops | 1 << c


def _columns(code: LinearCode) -> list:
    """Each column as `_insert` takes it: an ell-bit int over GF(2), else a list."""
    if code.q == 2:
        return [sum(1 << i for i, row in enumerate(code.rows) if row[c]) for c in range(code.m)]
    return [[row[c] for row in code.rows] for c in range(code.m)]


def decodable_closure(code: LinearCode, known: int) -> frozenset[int]:
    """All messages outside the mask `known` (bit x = message x) that the
    user can decode: the coloops once every unknown column is placed."""
    if known < 0 or known >> code.m:
        raise ValueError("known message outside column range")
    return next(_closures(code, (known,)))


@dataclass(frozen=True)
class UserDecoding:
    known: frozenset[int]
    decoded: frozenset[int]


@dataclass(frozen=True)
class DecodabilityReport:
    valid: bool
    per_user: tuple[UserDecoding, ...]

    def assignment(self, t: int) -> Assignment:
        """The t lexicographically smallest decoded messages of every user;
        only defined for valid codes, raises ValueError otherwise."""
        if not self.valid:
            raise ValueError("code does not satisfy every user")
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


def _closures(code: LinearCode, masks: Iterable[int]) -> Iterator[frozenset[int]]:
    """Each `known` mask's decoded set.  `states` maps a mask of unknown
    columns in the support to the state once they are placed in increasing
    order: it is the memo on `known & support`, and lowest columns shared
    between users are placed once."""
    support = sum(1 << c for c, col in enumerate(zip(*code.rows)) if any(col))
    cols, states = _columns(code), {0: ((), 0)}
    memo: dict[int, frozenset[int]] = {}  # coloops -> decoded set
    for known in masks:
        unknown, top = support & ~known, []
        while unknown not in states:
            top.append(c := unknown.bit_length() - 1)
            unknown ^= 1 << c
        for c in reversed(top):
            states[unknown | 1 << c] = _insert(states[unknown], c, cols[c], code.q)
            unknown |= 1 << c
        if (coloops := states[unknown][1]) not in memo:
            memo[coloops] = frozenset(c for c in range(code.m) if coloops >> c & 1)
        yield memo[coloops]


def is_valid(code: LinearCode, inst: Instance) -> DecodabilityReport:
    """Closure of every user, and whether each decodes at least t messages.

    Users with the same `known & support(code)` share one walk, and walks
    share their common prefixes.
    """
    if code.m != inst.m:
        raise ValueError(f"code width {code.m} != instance m {inst.m}")
    per_user = tuple(UserDecoding(a, d) for a, d in zip(inst.users, _closures(code, inst.masks)))
    valid = all(len(u.decoded) >= inst.t for u in per_user)
    return DecodabilityReport(valid, per_user)


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
    complete = bool(inst.complete_s_sizes)
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
                state: tuple[tuple, int] = ((), 0)
                for c, v in enumerate(key):
                    state = _insert(state, c, v if q == 2 else [v // q**r % q for r in range(ell)], q)
                served[key] = state[1].bit_count() >= inst.t
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
