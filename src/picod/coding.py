"""Linear codes over prime fields and the partition-based broadcast schemes.

A broadcast code is an l x m matrix over GF(q): each row is one coded
transmission, columns are messages.  For a complete-S instance the scheme
partitions S into groups and serves each group either uncoded (plain unit
rows) or with an MDS block whose row count equals the largest number of
messages any group member can miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


# ---------- exact linear algebra mod q ----------


def gf_rref(rows: Sequence[Sequence[int]], q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over GF(q); returns (nonzero rows, pivot columns)."""
    _check_field(q)
    mat = [[x % q for x in r] for r in rows]
    if not mat:
        return (), ()
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, q)
        mat[r] = [(x * inv) % q for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


# ---------- codes ----------


@dataclass(frozen=True)
class LinearCode:
    """An l x m broadcast matrix over GF(q).  m is kept explicit so the
    zero-row code still knows its width."""

    q: int
    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_field(self.q)
        if self.m < 0:
            raise ValueError("negative width")
        for r in self.rows:
            if len(r) != self.m:
                raise ValueError(f"row of length {len(r)}, expected {self.m}")
            if any(x < 0 or x >= self.q for x in r):
                raise ValueError("entry outside field range")

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

UNCODED = "uncoded"
MDS = "mds"


@dataclass(frozen=True)
class PartitionPart:
    """One group of side-information sizes and its cheaper serving strategy."""

    sizes: tuple[int, ...]
    strategy: str
    cost: int


@dataclass(frozen=True)
class PartitionPlan:
    m: int
    t: int
    parts: tuple[PartitionPart, ...]

    @property
    def total_cost(self) -> int:
        return sum(p.cost for p in self.parts)

    @property
    def needs_mds(self) -> bool:
        return any(p.strategy == MDS for p in self.parts)


def part_cost(m: int, t: int, sizes: Iterable[int]) -> tuple[int, str]:
    """Cheaper of the two strategies for one group of sizes.

    Uncoded sends the first max(sizes)+t messages plainly; the MDS block
    needs m-min(sizes) rows.  Ties go to uncoded, which works over GF(2).
    """
    group = sorted(sizes)
    uncoded_cost = group[-1] + t
    mds_cost = m - group[0]
    if uncoded_cost <= mds_cost:
        return uncoded_cost, UNCODED
    return mds_cost, MDS


def optimal_partition(m: int, t: int, profile: SizeProfile | Iterable[int]) -> PartitionPlan:
    """Cheapest partition of S into groups, each served by its better strategy.

    Because a group's cost depends only on its smallest and largest size,
    some optimal partition splits sorted(S) into consecutive runs, so a
    quadratic scan over run boundaries suffices.  Ties prefer fewer groups,
    then shorter trailing groups.
    """
    prof = _as_sizes(profile)
    if prof.smax > m - t:
        raise ValueError(f"sizes {prof.sorted()} exceed m - t = {m - t}")
    vals = prof.sorted()
    k = len(vals)
    # best[j] = (cost, groups, parts tuple) for the prefix vals[:j]
    best: list[tuple[int, int, tuple[PartitionPart, ...]]] = [(0, 0, ())]
    for j in range(1, k + 1):
        cand: tuple[int, int, tuple[PartitionPart, ...]] | None = None
        # scanning the last group's start from high to low keeps, on ties,
        # the shortest trailing group
        for i in range(j - 1, -1, -1):
            c, strat = part_cost(m, t, vals[i:j])
            prev = best[i]
            part = PartitionPart(vals[i:j], strat, c)
            cur = (prev[0] + c, prev[1] + 1, prev[2] + (part,))
            if cand is None or (cur[0], cur[1]) < (cand[0], cand[1]):
                cand = cur
        assert cand is not None
        best.append(cand)
    cost, _, parts = best[k]
    plan = PartitionPlan(m, t, parts)
    assert plan.total_cost == cost
    return plan


def default_field(m: int, plan: PartitionPlan) -> int:
    """GF(2) unless some group needs an MDS block, then the smallest prime >= m."""
    return smallest_prime_at_least(m) if plan.needs_mds else 2


def build_partition_scheme(plan: PartitionPlan, q: int | None = None) -> LinearCode:
    """Assemble the broadcast matrix of a partition plan.

    Every user whose side-information size lies in some group decodes at
    least t fresh messages from that group's rows: the uncoded rows expose
    max(sizes)+t plain messages, and an MDS block of m-min(sizes) rows
    recovers all unknowns of anyone holding at least min(sizes) messages.
    """
    m, t = plan.m, plan.t
    if q is None:
        q = default_field(m, plan)
    _check_field(q)
    rows: list[tuple[int, ...]] = []
    for part in plan.parts:
        if part.strategy == UNCODED:
            rows.extend(tuple(r) for r in unit_rows(part.sizes[-1] + t, m))
        elif part.strategy == MDS:
            rows.extend(mds_rows(m - part.sizes[0], m, q))
        else:
            raise ValueError(f"unknown strategy {part.strategy!r}")
    code = LinearCode(q, m, tuple(rows))
    assert code.ell == plan.total_cost
    return code
