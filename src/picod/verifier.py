"""Decide whether a broadcast code satisfies every user of an instance.

A user that knows the messages in K can decode message d from code X when
the unit vector e_d lies in span(rows of X, {e_a : a in K}), that is, in the
row space of X restricted to the columns U it lacks.  That row space is
orthogonal to every dependency among those columns, so d is decoded exactly
when column d is outside the span of the others in U: a coloop of their
column matroid.  A decoded e_d already lies in the span, so knowing d
decodes nothing new.  `_place` places one column at a time and `_step` is
the one elimination step, the same for every field: XOR on int columns over
GF(2), arithmetic mod q on lists otherwise.  A column outside the code's
support is zero, in no circuit with others, so users with the same
`known & support` share one walk over the rest.  `is_valid` walks the trie
of those walks' prefixes once, depth first; a node carries the columns
still to be placed below it, reduced against its basis, so placing one is
a pivot test and, if it is independent, one step per carried column.

The exhaustive code search uses the same fact: how many messages a user
decodes depends only on the multiset of the code's columns at the messages
it lacks.  It places a code's columns depth first and checks each user once
its last unknown column is placed, one walk per distinct multiset, which
steps each column against the basis from scratch.
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
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from .coding import LinearCode
from .errors import SearchOverflow
from .instance import Assignment, Instance


def _place(f, r: int, coloops: int, ell: int, q: int) -> tuple[int, tuple | None]:
    """Place a column whose form f is reduced against the r basis vectors
    placed so far.  A form holds ell entries, then the combination of basis
    columns it equals, one entry per basis position: the bits past ell of
    an int over GF(2), else its list's tail.  `coloops` marks positions.  A
    dependent f is not a coloop, nor is any column in its combination.  An
    independent f is a coloop and, with itself added to its combination,
    basis vector r: (pivot, form, inverse of the pivot entry), the pivot a
    bit over GF(2), else an index.  Returns the coloops and that vector, or
    None."""
    if q == 2:
        if f & ((1 << ell) - 1):
            return coloops | 1 << r, (f & -f, f | 1 << (ell + r), 1)
        return coloops & ~(f >> ell), None
    for p in range(ell):
        if f[p]:
            return coloops | 1 << r, (p, [*f[: ell + r], 1, *f[ell + r + 1 :]], pow(f[p], -1, q))
    return coloops & ~sum(1 << k for k, x in enumerate(f[ell:]) if x), None


def _step(g, vec: tuple, q: int):
    """One elimination step: form g cleared at the pivot of basis vector
    vec, by XOR over GF(2), else arithmetic mod q on lists."""
    p, v, inv = vec
    if q == 2:
        return g ^ v if g & p else g
    return [(x - h * y) % q for x, y in zip(g, v)] if (h := g[p] * inv) else g


def _walk(forms: list, unknowns: list[int], ell: int, q: int) -> list[tuple[int, tuple]]:
    """The coloops and basis columns of each mask in `unknowns` (distinct,
    ascending) once its columns are placed from the highest down.  Then the
    masks' prefixes form a trie in which a node's parent lacks its lowest
    column, and ascending order visits it depth first.  An explicit stack
    holds the path to the node: its mask shifted past its lowest column b, b,
    the forms of the columns below b reduced against its basis, its coloops
    and its basis columns.  Each trie edge is one `_place`; a node whose
    subtree the next mask misses carries no forms."""
    out, stack = [], [(0, len(forms), forms, 0, ())]
    for u, nxt in zip(unknowns, [*unknowns[1:], -1]):
        while u >> stack[-1][1] != stack[-1][0]:
            stack.pop()
        _, b, below, coloops, cols = stack[-1]
        rest = u & ((1 << b) - 1)
        while rest:
            c = rest.bit_length() - 1
            rest ^= 1 << c
            coloops, vec = _place(below[c], len(cols), coloops, ell, q)
            if vec:  # a node that no later mask is under needs no forms
                cols += (c,)
                below = [_step(g, vec, q) for g in below[:c]] if rest or nxt >> c == u >> c else []
            stack.append((u >> c, c, below, coloops, cols))
        out.append((coloops, cols))
    return out


def _columns(code: LinearCode) -> list:
    """Each column's form before any placement: an ell-bit int over GF(2),
    else a list with an empty combination."""
    if code.q == 2:
        return [sum(1 << i for i, row in enumerate(code.rows) if row[c]) for c in range(code.m)]
    return [[row[c] for row in code.rows] + [0] * code.ell for c in range(code.m)]


def decodable_closure(code: LinearCode, known: int) -> frozenset[int]:
    """All messages outside the mask `known` (bit x = message x) that the
    user can decode: the coloops once every unknown column is placed."""
    if known < 0 or known >> code.m:
        raise ValueError("known message outside column range")
    return _closures(code, (known,))[0]


class UserDecoding(NamedTuple):
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


def _closures(code: LinearCode, masks: Iterable[int]) -> list[frozenset[int]]:
    """Each `known` mask's decoded set.  A column outside the support is
    zero, so users with the same unknown support columns share one trie
    node, and the trie walk places each distinct prefix of them once."""
    support = sum(1 << c for c, col in enumerate(zip(*code.rows)) if any(col))
    unknowns = [support & ~known for known in masks]
    order = sorted(set(unknowns))
    bits = [1 << r for r in range(code.ell)]
    decoded = {
        u: frozenset(compress(cols, map(coloops.__and__, bits)))
        for u, (coloops, cols) in zip(order, _walk(_columns(code), order, code.ell, code.q))
    }
    return [decoded[u] for u in unknowns]


def is_valid(code: LinearCode, inst: Instance) -> DecodabilityReport:
    """Closure of every user, and whether each decodes at least t messages.

    One walk over the trie of the users' unknown support columns places
    each distinct prefix once, with the elimination step the code search
    uses; users with the same `known & support(code)` share a node.
    """
    if code.m != inst.m:
        raise ValueError(f"code width {code.m} != instance m {inst.m}")
    per_user = tuple(map(UserDecoding, inst.users, _closures(code, inst.masks)))
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
                forms = key if q == 2 else [[v // q**r % q for r in range(ell)] + [0] * ell for v in key]
                basis, coloops = [], 0
                for f in forms:
                    for vec in basis:
                        f = _step(f, vec, q)
                    coloops, vec = _place(f, len(basis), coloops, ell, q)
                    if vec:
                        basis.append(vec)
                served[key] = coloops.bit_count() >= inst.t
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
