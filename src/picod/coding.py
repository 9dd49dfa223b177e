"""Linear codes over prime fields and the partition-based broadcast schemes.

A broadcast code is an l x m matrix over GF(q): each row is one coded
transmission, columns are messages.  `LinearCode` checks its field and
entries once, when built, so decoding (`verifier`) re-checks nothing.  For a
complete-S instance the scheme serves the smallest sizes of S uncoded (plain
unit rows) and the rest with one MDS block whose row count equals the
largest number of messages any of those users can miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import FieldTooSmall
from .instance import SizeProfile, _as_sizes, _json_field

# ---------- prime fields ----------


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def smallest_prime_at_least(n: int) -> int:
    q = max(2, n)
    while not is_prime(q):
        q += 1
    return q


def _check_field(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")


# ---------- codes ----------


@dataclass(frozen=True)
class LinearCode:
    """An l x m broadcast matrix over GF(q).  m is kept explicit so the
    zero-row code still knows its width.  `masks`, the row supports as
    bitmasks (the GF(2) rows), derives from `rows`: never passed or compared."""

    q: int
    m: int
    rows: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_field(self.q)
        if self.m < 0:
            raise ValueError("negative width")
        q, masks = self.q, []
        for r in self.rows:
            if len(r) != self.m:
                raise ValueError(f"row of length {len(r)}, expected {self.m}")
            mask = 0
            for c, x in enumerate(r):
                if x:
                    if not 0 < x < q:
                        raise ValueError("entry outside field range")
                    mask |= 1 << c
            masks.append(mask)
        object.__setattr__(self, "masks", tuple(masks))

    @property
    def ell(self) -> int:
        return len(self.rows)

    def wire(self) -> dict:
        return {"q": self.q, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_wire(cls, obj: object, m: int | None = None) -> "LinearCode":
        rows = tuple(tuple(r) for r in _json_field(obj, "rows", nested=True))
        if rows:
            width = len(rows[0])
        elif m is not None:
            width = m
        else:
            raise ValueError("cannot infer width of a zero-row code")
        return cls(_json_field(obj, "q"), width, rows)


def unit_rows(count: int, m: int) -> list[list[int]]:
    """The first `count` unit vectors of length m."""
    if count > m:
        raise ValueError(f"{count} unit rows requested, only {m} columns")
    return [[1 if c == r else 0 for c in range(m)] for r in range(count)]


def mds_rows(k: int, m: int, q: int) -> tuple[tuple[int, ...], ...]:
    """A k x m matrix over GF(q) in which every k columns are invertible.

    Row i holds x_j^i on the nodes x_j = (j + 1) mod q, which are distinct
    because q >= m.  Any k columns c_1 < ... < c_k form a Vandermonde matrix
    with determinant prod_{a < b} (x_{c_b} - x_{c_a}), a product of non-zero
    elements of the field GF(q), so it is non-zero and the matrix is MDS by
    construction.
    """
    _check_field(q)
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    if q < m:
        raise FieldTooSmall(f"q={q} < m={m}: not enough distinct nodes")
    nodes = [(j + 1) % q for j in range(m)]
    return tuple(tuple(pow(x, i, q) for x in nodes) for i in range(k))


# ---------- partition plans ----------


@dataclass(frozen=True)
class PartitionPlan:
    """The partition scheme as two row counts: `uncoded` unit rows, then an
    MDS block of `mds` rows; either may be 0."""

    m: int
    uncoded: int
    mds: int

    @property
    def total_cost(self) -> int:
        return self.uncoded + self.mds


def optimal_partition(m: int, t: int, profile: SizeProfile | Iterable[int]) -> PartitionPlan:
    """Cheapest split of sorted(S) into an uncoded prefix and an MDS suffix.

    Serving a group of sizes uncoded sends its first max + t messages
    plainly; an MDS block serves it with m - min rows.  Two groups served
    the same way cost more than their union, and moving the sizes above an
    uncoded group's largest into the MDS group can only raise that group's
    smallest size, so some cheapest partition of S into groups has this
    shape.  Ties prefer one group, then the shorter MDS suffix.
    """
    vals = _as_sizes(profile, m, t).sorted()
    k = len(vals)
    plans = (
        PartitionPlan(m, vals[j - 1] + t if j else 0, m - vals[j] if j < k else 0)
        for j in range(k + 1)
    )
    # a nonzero count is a group, and a shorter suffix has fewer MDS rows
    return min(plans, key=lambda p: (p.total_cost, (p.uncoded > 0) + (p.mds > 0), p.mds))


def build_partition_scheme(plan: PartitionPlan, q: int | None = None) -> LinearCode:
    """Assemble the broadcast matrix of a partition plan: the uncoded unit
    rows, then the MDS block.

    Every user of the uncoded prefix decodes at least t plain messages, and
    an MDS block of m - min rows recovers all unknowns of anyone holding at
    least min messages.  Without q the field is GF(2), or the smallest prime
    >= m when there is an MDS block.
    """
    m = plan.m
    if q is None:
        q = smallest_prime_at_least(m) if plan.mds else 2
    rows = [tuple(r) for r in unit_rows(plan.uncoded, m)]
    if plan.mds:
        rows.extend(mds_rows(plan.mds, m, q))
    return LinearCode(q, m, tuple(rows))
