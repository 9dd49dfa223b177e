"""Network topology hypergraphs and the circular-arc two-transmission scheme.

The topology of an instance has one vertex per user and one edge per
message: edge j collects the users that miss message j.  A set of edge
labels covering every vertex exactly once (a 1-factor) yields a single
coded transmission satisfying everyone with t = 1; when every edge is a
contiguous arc under some cyclic order of the users, two transmissions
always suffice.

Vertex sets, edges included, and sets of positions along a cyclic order are
int bitmasks (bit i for vertex or position i); factors are edge-label tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .coding import LinearCode
from .errors import SearchOverflow
from .instance import Instance
from .verifier import is_valid

DEFAULT_NODE_CAP = 10**6


@dataclass(frozen=True)
class Hypergraph:
    n_vertices: int
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 0 or e >> self.n_vertices for e in self.edges):
            raise ValueError("edge contains an unknown vertex")

    def wire(self) -> dict:
        edges = [[v + 1 for v, c in enumerate(f"{e:b}"[::-1]) if c == "1"] for e in self.edges]
        return {"n": self.n_vertices, "edges": edges}


def network_topology(inst: Instance) -> Hypergraph:
    """Edge j = the users that do not hold message j: column m - 1 - j of
    the users' missing-message bit strings, last user first, read in base 2
    (the zero row keeps m columns when there are no users)."""
    m, full = inst.m, (1 << inst.m) - 1
    rows = ["0" * m, *(f"{full & ~a:0{m}b}" for a in reversed(inst.masks))]
    return Hypergraph(inst.n, tuple(int("".join(c), 2) for c in zip(*rows))[::-1])


def has_one_factor(h: Hypergraph, node_cap: int = DEFAULT_NODE_CAP) -> tuple[int, ...] | None:
    """Edge labels covering every vertex exactly once, or None if impossible.

    Depth-first exact cover, always branching on the first vertex with the
    fewest usable edges, so a vertex no edge can cover ends a branch at once
    and a vertex with one edge forces it.  Raises SearchOverflow when the
    node budget runs out, which is different from a proven None.
    """
    budget = node_cap

    def branches(uncovered: int) -> Iterator[tuple[int, int]]:
        """One node: the usable edges through the first vertex with the fewest."""
        nonlocal budget
        if budget <= 0:
            raise SearchOverflow(f"1-factor search exceeded {node_cap} nodes")
        budget -= 1
        usable = [(j, e) for j, e in enumerate(h.edges) if not e & ~uncovered]
        once = twice = 0  # the vertices in at least one, two usable edges
        for _, e in usable:
            once, twice = once | e, twice | once & e
        # the fewest is 0 on the vertices in no usable edge, else 1 on those
        # in one, else at least 2: the scan stops at the first that many
        rest = uncovered & ~once or once & ~twice or uncovered
        options: list[tuple[int, int]] | None = None
        while rest:
            v = rest & -rest
            rest ^= v
            mine = [(j, e) for j, e in usable if e & v]
            if options is None or len(mine) < len(options):
                options = mine
                if len(mine) <= 2:
                    break
        assert options is not None
        return iter(options)

    full = (1 << h.n_vertices) - 1
    if not full:
        return ()
    # one frame per chosen edge, on a list rather than the call stack
    chosen: list[int] = []
    stack = [(full, branches(full))]
    while stack:
        uncovered, edges = stack[-1]
        for j, e in edges:
            chosen.append(j)
            if e == uncovered:
                return tuple(sorted(chosen))
            stack.append((uncovered & ~e, branches(uncovered & ~e)))
            break
        else:
            stack.pop()
            if chosen:
                chosen.pop()
    return None


def one_transmission_code(h: Hypergraph, factor: Sequence[int]) -> LinearCode:
    """The single GF(2) row summing the messages of a 1-factor.

    Every user misses exactly one summand, so one transmission satisfies
    everyone with t = 1.  Rejects selections that are not 1-factors and
    topologies without users.
    """
    if h.n_vertices == 0:
        raise ValueError("topology has no users")
    labels = list(factor)
    chosen = set(labels)
    if len(chosen) != len(labels):
        raise ValueError("factor repeats an edge")
    if any(j < 0 or j >= len(h.edges) for j in labels):
        raise ValueError("factor uses an unknown edge label")
    covered = 0
    for j in labels:
        if covered & h.edges[j]:
            raise ValueError(f"edge {j} overlaps the rest of the factor")
        covered |= h.edges[j]
    if covered != (1 << h.n_vertices) - 1:
        raise ValueError("factor leaves a user uncovered")
    row = tuple(1 if j in chosen else 0 for j in range(len(h.edges)))
    return LinearCode(2, len(h.edges), (row,))


# ---------- circular-arc structure ----------


def _position_masks(h: Hypergraph, order: Sequence[int]) -> list[int]:
    """Each edge as the bitmask of its vertices' positions along the order."""
    if sorted(order) != list(range(h.n_vertices)):
        raise ValueError("order is not a permutation of the vertices")
    bit = {1 << v: 1 << k for k, v in enumerate(order)}  # vertex bit -> position bit
    masks = []
    for e in h.edges:
        p = 0
        while e:
            p |= bit[e & -e]
            e &= e - 1
        masks.append(p)
    return masks


def _runs(mask: int, n: int) -> list[tuple[int, int]]:
    """(start, length) of each maximal cyclic run of set bits among n
    positions, by start.  A run starts at a set bit whose cyclic predecessor
    is clear; a full mask has no such bit and is one run from 0."""
    full = (1 << n) - 1
    if not mask:
        return []
    if mask == full:
        return [(0, n)]
    starts = mask & ~((mask << 1 | mask >> (n - 1)) & full)
    runs = []
    while starts:
        s = (starts & -starts).bit_length() - 1
        starts &= starts - 1
        r = (mask >> s | mask << (n - s)) & full  # the run rotated to bit 0
        runs.append((s, (r ^ (r + 1)).bit_length() - 1))
    return runs


def verify_circular_arc(h: Hypergraph, order: Sequence[int]) -> bool:
    """Is every edge a contiguous run of the given cyclic vertex order?"""
    return all(len(_runs(e, h.n_vertices)) <= 1 for e in _position_masks(h, order))


@dataclass
class CircularArcTrace:
    """How the scheme arrived at its rows: (label, start, length) per selected
    arc, (positions, label) per leftover gap; 0-based until `wire()`."""

    factor: tuple[int, ...] | None = None
    dropped: list[int] = field(default_factory=list)
    selected: list[tuple[int, int, int]] = field(default_factory=list)
    gap_covers: list[tuple[list[int], int]] = field(default_factory=list)

    def wire(self) -> dict:
        return {
            "factor": None if self.factor is None else [j + 1 for j in self.factor],
            "dropped": [j + 1 for j in self.dropped],
            "selected": [{"label": j + 1, "start": i + 1, "length": k}
                         for j, i, k in self.selected],
            "gap_covers": [{"gap_positions": [g + 1 for g in gap], "label": j + 1}
                           for gap, j in self.gap_covers],
        }


def _drop_dominated(arcs: dict[int, int]) -> tuple[dict[int, int], list[int]]:
    """Remove edges lying inside the union of the others, lowest label first,
    until every survivor keeps a private position.  One ascending pass does
    it: a drop only shrinks the union of the others, so a kept edge stays."""
    arcs = dict(arcs)
    dropped: list[int] = []
    for label in sorted(arcs):
        others = 0
        for other, e in arcs.items():
            if other != label:
                others |= e
        if not arcs[label] & ~others:
            del arcs[label]
            dropped.append(label)
    return arcs, dropped


def circular_arc_scheme_with_trace(
    inst: Instance,
    order: Sequence[int],
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[LinearCode, CircularArcTrace]:
    """At most two GF(2) transmissions for a circular-arc topology with t = 1.

    A 1-factor, when one exists, gives a single row; a 1-factor search past
    node_cap raises SearchOverflow.  Otherwise: drop dominated edges,
    greedily walk the cycle selecting the edge that starts at each position
    reached, and send the sum of the selected messages; a second row sums
    one covering edge per leftover gap plus the first selected message.

    Every survivor of the drop keeps a private position, and two arcs with
    the same start are nested, so at most one survivor starts anywhere.
    Selected arcs that tiled the cycle exactly would be a 1-factor, which
    the search has ruled out, so the second row is always needed.
    """
    if inst.t != 1:
        raise ValueError("the two-transmission construction needs t = 1")
    if inst.n == 0:
        raise ValueError("instance has no users")
    topo = network_topology(inst)
    n = inst.n
    masks = _position_masks(topo, order)
    if any(len(_runs(e, n)) > 1 for e in masks):
        raise ValueError("edges are not circular arcs under this order")

    trace = CircularArcTrace()
    factor = has_one_factor(topo, node_cap=node_cap)
    if factor is not None:
        trace.factor = factor
        return one_transmission_code(topo, factor), trace

    arcs, trace.dropped = _drop_dominated({j: e for j, e in enumerate(masks) if e})
    starting = {s: (j, length) for j, e in arcs.items() for s, length in _runs(e, n)}

    covered = 0
    i = 0
    while i < n:
        if i not in starting:
            i += 1
            continue
        pick, length = starting[i]
        covered |= arcs[pick]
        trace.selected.append((pick, i, length))
        i += length
    assert trace.selected, "no edge starts anywhere, yet vertices are covered"

    for s, length in _runs(((1 << n) - 1) & ~covered, n):
        gap = [(s + k) % n for k in range(length)]
        run = sum(1 << p for p in gap)
        candidates = [j for j, e in arcs.items() if not run & ~e]
        assert candidates, f"uncovered run {gap} has no covering edge"
        trace.gap_covers.append((gap, min(candidates)))
    first = {j for j, _, _ in trace.selected}
    second = {j for _, j in trace.gap_covers} | {trace.selected[0][0]}
    assert len(second) == len(trace.gap_covers) + 1, "cover labels collide"
    rows = [
        tuple(1 if j in chosen else 0 for j in range(inst.m))
        for chosen in (first, second)
    ]

    code = LinearCode(2, inst.m, tuple(rows))
    check = is_valid(code, inst)
    assert check.valid, "constructed rows fail verification"
    return code, trace
