"""Network topology hypergraphs and the circular-arc two-transmission scheme.

The topology of an instance has one vertex per user and one edge per
message: edge j collects the users that miss message j.  A set of edge
labels covering every vertex exactly once (a 1-factor) yields a single
coded transmission satisfying everyone with t = 1; when every edge is a
contiguous arc under some cyclic order of the users, two transmissions
always suffice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .coding import LinearCode
from .errors import NotAFactor, SearchOverflow
from .instance import Instance
from .verifier import is_valid

DEFAULT_NODE_CAP = 10**6


@dataclass(frozen=True)
class Hypergraph:
    n_vertices: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        for e in self.edges:
            if any(v < 0 or v >= self.n_vertices for v in e):
                raise ValueError("edge contains an unknown vertex")

    def to_json(self, pretty: bool = False) -> str:
        obj = {
            "n": self.n_vertices,
            "edges": [sorted(v + 1 for v in e) for e in self.edges],
        }
        return json.dumps(obj, indent=2 if pretty else None)

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph":
        obj = json.loads(text)
        return cls(
            int(obj["n"]),
            tuple(frozenset(int(v) - 1 for v in e) for e in obj["edges"]),
        )


def network_topology(inst: Instance) -> Hypergraph:
    """Edge j = the users that do not hold message j."""
    edges = tuple(
        frozenset(i for i, a in enumerate(inst.users) if j not in a)
        for j in range(inst.m)
    )
    return Hypergraph(inst.n, edges)


def dual(h: Hypergraph) -> Hypergraph:
    """Swap vertices and edges: new edge v = the labels of edges containing v."""
    edges = tuple(
        frozenset(j for j, e in enumerate(h.edges) if v in e)
        for v in range(h.n_vertices)
    )
    return Hypergraph(len(h.edges), edges)


def has_one_factor(h: Hypergraph, node_cap: int = DEFAULT_NODE_CAP) -> tuple[int, ...] | None:
    """Edge labels covering every vertex exactly once, or None if impossible.

    Depth-first exact cover, always branching on the vertex with the fewest
    usable edges.  Raises SearchOverflow when the node budget runs out, which
    is different from a proven None.
    """
    labeled = [(j, e) for j, e in enumerate(h.edges) if e]
    uncovered = set(range(h.n_vertices))
    chosen: list[int] = []
    budget = node_cap

    def search() -> tuple[int, ...] | None:
        nonlocal budget
        if not uncovered:
            return tuple(sorted(chosen))
        if budget <= 0:
            raise SearchOverflow(f"1-factor search exceeded {node_cap} nodes")
        budget -= 1
        options: list[tuple[int, frozenset[int]]] | None = None
        for v in sorted(uncovered):
            mine = [(j, e) for j, e in labeled if v in e and e <= uncovered]
            if options is None or len(mine) < len(options):
                options = mine
                if not mine:
                    break
        assert options is not None
        for j, e in options:
            uncovered.difference_update(e)
            chosen.append(j)
            found = search()
            if found is not None:
                return found
            chosen.pop()
            uncovered.update(e)
        return None

    return search()


def one_transmission_code(h: Hypergraph, factor: Sequence[int], q: int = 2) -> LinearCode:
    """The single row summing the messages of a 1-factor.

    Every user misses exactly one summand, so one transmission satisfies
    everyone with t = 1.  Rejects selections that are not 1-factors and
    topologies without users.
    """
    if h.n_vertices == 0:
        raise NotAFactor("topology has no users")
    labels = list(factor)
    if len(set(labels)) != len(labels):
        raise NotAFactor("factor repeats an edge")
    if any(j < 0 or j >= len(h.edges) for j in labels):
        raise NotAFactor("factor uses an unknown edge label")
    covered: set[int] = set()
    for j in labels:
        e = h.edges[j]
        if covered & e:
            raise NotAFactor(f"edge {j} overlaps the rest of the factor")
        covered |= e
    if covered != set(range(h.n_vertices)):
        raise NotAFactor("factor leaves a user uncovered")
    row = tuple(1 if j in set(labels) else 0 for j in range(len(h.edges)))
    return LinearCode(q, len(h.edges), (row,))


# ---------- circular-arc structure ----------


def verify_circular_arc(h: Hypergraph, order: Sequence[int]) -> bool:
    """Is every edge a contiguous run of the given cyclic vertex order?"""
    n = h.n_vertices
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation of the vertices")
    pos = {v: k for k, v in enumerate(order)}
    for e in h.edges:
        ps = sorted(pos[v] for v in e)
        if len(ps) <= 1:
            continue
        breaks = sum(1 for a, b in zip(ps, ps[1:]) if b - a > 1)
        if ps[0] + n - ps[-1] > 1:
            breaks += 1
        if breaks > 1:
            return False
    return True


def _arc_span(positions: frozenset[int], n: int) -> tuple[int, int]:
    """(start, length) of a contiguous cyclic run of positions."""
    if len(positions) == n:
        return 0, n
    ps = sorted(positions)
    for k, (a, b) in enumerate(zip(ps, ps[1:])):
        if b - a > 1:
            return ps[k + 1], len(ps)
    return ps[0], len(ps)


@dataclass
class CircularArcTrace:
    """How the scheme arrived at its rows, for inspection and tests."""

    factor: tuple[int, ...] | None = None
    dropped: list[int] = field(default_factory=list)
    selected: list[dict] = field(default_factory=list)
    gap_covers: list[dict] = field(default_factory=list)

    def to_json(self, pretty: bool = False) -> str:
        obj = {
            "factor": None if self.factor is None else [j + 1 for j in self.factor],
            "dropped": [j + 1 for j in self.dropped],
            "selected": self.selected,
            "gap_covers": self.gap_covers,
        }
        return json.dumps(obj, indent=2 if pretty else None)


def _uncovered_runs(counts: list[int]) -> list[list[int]]:
    """Maximal cyclic runs of positions no selected arc covers."""
    n = len(counts)
    zero = {p for p in range(n) if counts[p] == 0}
    assert len(zero) < n, "selected arcs cover nothing"
    runs: list[list[int]] = []
    for s in sorted(zero):
        if (s - 1) % n in zero:
            continue
        run = [s]
        p = (s + 1) % n
        while p in zero:
            run.append(p)
            p = (p + 1) % n
        runs.append(run)
    return runs


def _drop_dominated(arcs: dict[int, frozenset[int]]) -> tuple[dict[int, frozenset[int]], list[int]]:
    """Remove edges lying inside the union of the others, lowest label first,
    until every survivor keeps a private vertex."""
    arcs = dict(arcs)
    dropped: list[int] = []
    changed = True
    while changed:
        changed = False
        for label in sorted(arcs):
            others: set[int] = set()
            for other, e in arcs.items():
                if other != label:
                    others |= e
            if arcs[label] <= others:
                del arcs[label]
                dropped.append(label)
                changed = True
                break
    return arcs, dropped


def circular_arc_scheme_with_trace(
    inst: Instance,
    order: Sequence[int],
    q: int = 2,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[LinearCode, CircularArcTrace]:
    """At most two transmissions for a circular-arc topology with t = 1.

    A 1-factor, when one exists, gives a single row.  Otherwise: drop
    dominated edges, greedily walk the cycle selecting an edge at each
    position where one starts (longest arc first, then lowest label), and
    send the sum of the selected messages; a second row sums one covering
    edge per leftover gap plus the first selected message.
    """
    if inst.t != 1:
        raise ValueError("the two-transmission construction needs t = 1")
    if inst.n == 0:
        raise ValueError("instance has no users")
    topo = network_topology(inst)
    covered = frozenset().union(*topo.edges) if topo.edges else frozenset()
    if covered != frozenset(range(inst.n)):
        raise ValueError("some user misses no message at all")
    if not verify_circular_arc(topo, order):
        raise ValueError("edges are not circular arcs under this order")

    trace = CircularArcTrace()
    n = inst.n
    pos = {v: k for k, v in enumerate(order)}

    try:
        factor = has_one_factor(topo, node_cap=node_cap)
    except SearchOverflow:
        factor = None
    if factor is not None:
        trace.factor = factor
        return one_transmission_code(topo, factor, q), trace

    # position space: edge label -> set of positions along the cycle
    arcs = {
        j: frozenset(pos[v] for v in e) for j, e in enumerate(topo.edges) if e
    }
    arcs, trace.dropped = _drop_dominated(arcs)
    spans = {j: _arc_span(e, n) for j, e in arcs.items()}

    selected: list[int] = []
    i = 0
    while i < n:
        here = [j for j, (s, _) in spans.items() if s == i]
        if not here:
            i += 1
            continue
        here.sort(key=lambda j: (-spans[j][1], j))
        pick = here[0]
        selected.append(pick)
        trace.selected.append(
            {"label": pick + 1, "start": i + 1, "length": spans[pick][1],
             "tie_candidates": [j + 1 for j in here]}
        )
        i = i + spans[pick][1] if i + spans[pick][1] <= n else n
    assert selected, "no edge starts anywhere, yet vertices are covered"

    counts = [0] * n
    for j in selected:
        for p in arcs[j]:
            counts[p] += 1

    rows: list[tuple[int, ...]] = []
    row1 = tuple(1 if j in set(selected) else 0 for j in range(inst.m))
    rows.append(row1)

    if any(c != 1 for c in counts):
        covers: list[int] = []
        for run in _uncovered_runs(counts):
            run_set = set(run)
            candidates = sorted(j for j, e in arcs.items() if run_set <= e)
            assert candidates, f"uncovered run {run} has no covering edge"
            covers.append(candidates[0])
            trace.gap_covers.append(
                {"gap_positions": [g + 1 for g in run], "label": candidates[0] + 1}
            )
        second = set(covers) | {selected[0]}
        assert len(second) == len(covers) + 1, "cover labels collide"
        rows.append(tuple(1 if j in second else 0 for j in range(inst.m)))

    code = LinearCode(q, inst.m, tuple(rows))
    check = is_valid(code, inst)
    assert check.valid, "constructed rows fail verification"
    return code, trace


def circular_arc_scheme(
    inst: Instance,
    order: Sequence[int],
    q: int = 2,
    node_cap: int = DEFAULT_NODE_CAP,
) -> LinearCode:
    code, _ = circular_arc_scheme_with_trace(inst, order, q, node_cap)
    return code
