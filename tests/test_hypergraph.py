"""Topology hypergraphs, 1-factors, and the circular-arc scheme."""

import itertools

import pytest

from picod.errors import SearchOverflow
from picod.hypergraph import (
    Hypergraph,
    _drop_dominated,
    circular_arc_scheme_with_trace,
    has_one_factor,
    network_topology,
    one_transmission_code,
    verify_circular_arc,
)
from picod.instance import Instance, build_complete_s
from picod.verifier import is_valid

from util import (
    brute_exact_cover,
    brute_is_arc,
    random_arc_instance,
    random_instance,
    seeded,
    stack_headroom,
)


def mask(vertices):
    return sum(1 << v for v in vertices)


def edges(*sets):
    """Hypergraph edges, as int masks, from vertex sets."""
    return tuple(mask(e) for e in sets)


def members(edge):
    """The vertex set of an edge mask, for the set-based brute-force oracles."""
    return frozenset(v for v in range(edge.bit_length()) if edge >> v & 1)


def arc_instance(n, arcs, m=None):
    """Instance whose identity-order topology has the given position arcs."""
    m = len(arcs) if m is None else m
    users = tuple(
        frozenset(j for j in range(m) if i not in arcs[j]) for i in range(n)
    )
    return Instance(m=m, t=1, users=users)


def random_hypergraph(rng, n_max=9, e_max=7):
    n = rng.randint(1, n_max)
    sets = []
    for _ in range(rng.randint(0, e_max)):
        size = rng.randint(0, n)
        sets.append(frozenset(rng.sample(range(n), size)))
    return Hypergraph(n, edges(*sets))


class TestHypergraphType:
    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(2, edges({0, 2}))
        with pytest.raises(ValueError):
            Hypergraph(1, (-1,))  # a negative mask: no vertex set at all

    def test_json_wire_is_one_based(self):
        h = Hypergraph(3, edges({0, 2}, set()))
        obj = h.wire()
        assert obj == {"n": 3, "edges": [[1, 3], []]}


class TestNetworkTopology:
    def test_each_user_missing_one_message_gives_singletons(self):
        inst = build_complete_s(3, 1, {2})
        topo = network_topology(inst)
        # users in lex order: {0,1},{0,2},{1,2}; edge j holds the one user
        # without message j
        assert topo.edges == edges({2}, {1}, {0})

    def test_empty_side_information(self):
        inst = build_complete_s(2, 1, {0})
        topo = network_topology(inst)
        assert topo.edges == edges({0}, {0})

    def test_singleton_side_information_triangle(self):
        inst = build_complete_s(3, 1, {1})
        topo = network_topology(inst)
        assert topo.edges == edges({1, 2}, {0, 2}, {0, 1})

    def test_edges_list_the_users_missing_each_message(self):
        rng = seeded(402)
        for inst in [Instance(3, 1, ())] + [random_instance(rng, 7, 40) for _ in range(60)]:
            topo = network_topology(inst)
            assert topo.n_vertices == inst.n
            assert topo.edges == tuple(
                mask(i for i, a in enumerate(inst.users) if j not in a) for j in range(inst.m)
            )


class TestHasOneFactor:
    def test_singleton_edges_use_all_labels(self):
        inst = build_complete_s(3, 1, {2})
        assert has_one_factor(network_topology(inst)) == (0, 1, 2)

    def test_triangle_has_none(self):
        inst = build_complete_s(3, 1, {1})
        assert has_one_factor(network_topology(inst)) is None

    def test_two_disjoint_pairs(self):
        h = Hypergraph(4, edges({0, 1}, {2, 3}, {1, 2}))
        assert has_one_factor(h) == (0, 1)

    def test_empty_edges_are_ignored(self):
        h = Hypergraph(2, edges(set(), {0, 1}))
        assert has_one_factor(h) == (1,)

    def test_no_vertices_needs_no_edges(self):
        assert has_one_factor(Hypergraph(0, ())) == ()

    def test_search_depth_is_not_call_depth(self):
        # one chosen edge per vertex: 600 levels deep, one node per level
        n = 600
        h = Hypergraph(n, tuple(1 << v for v in range(n)))
        with stack_headroom(60):
            assert has_one_factor(h, node_cap=n) == tuple(range(n))

    def test_uncoverable_vertex_ends_the_search(self):
        # k independent pairs {2i, 2i+1}, each coverable by two singletons
        # or by one pair edge, then u, w, x with only the edges {u, x} and
        # {w, x}: u forces {u, x}, which leaves w no edge.  Branching on the
        # pairs first would try 2^k covers of them before reaching u.
        k = 18
        u, w, x = 2 * k, 2 * k + 1, 2 * k + 2
        sets = [{v} for v in range(2 * k)] + [{2 * i, 2 * i + 1} for i in range(k)]
        h = Hypergraph(2 * k + 3, edges(*sets, {u, x}, {w, x}))
        assert has_one_factor(h) is None
        assert has_one_factor(h, node_cap=2) is None

    def test_node_cap_overflow_is_not_a_verdict(self):
        inst = build_complete_s(3, 1, {1})
        with pytest.raises(SearchOverflow):
            has_one_factor(network_topology(inst), node_cap=0)

    def test_matches_exhaustive_exact_cover(self):
        rng = seeded(404)
        graphs = [random_hypergraph(rng) for _ in range(40)]
        graphs += [network_topology(random_arc_instance(rng, n_max=20, m_max=10))
                   for _ in range(40)]
        graphs += [
            network_topology(build_complete_s(m, 1, set(sizes)))
            for m in range(1, 7)
            for r in range(1, m + 1)
            for sizes in itertools.combinations(range(m), r)
        ]
        for h in graphs:
            sets = [members(e) for e in h.edges]
            brute = brute_exact_cover(h.n_vertices, sets)
            found = has_one_factor(h)
            assert (found is None) == (brute is None)
            if found is not None:
                covered = set()
                for j in found:
                    assert not covered & sets[j]
                    covered |= sets[j]
                assert covered == set(range(h.n_vertices))


class TestOneTransmissionCode:
    def test_sum_of_all_messages(self):
        inst = build_complete_s(3, 1, {2})
        topo = network_topology(inst)
        code = one_transmission_code(topo, (0, 1, 2))
        assert code.rows == ((1, 1, 1),)
        assert is_valid(code, inst).valid

    def test_rejections(self):
        h = Hypergraph(2, edges({0}, {1}, {0, 1}))
        with pytest.raises(ValueError, match="topology has no users"):
            one_transmission_code(Hypergraph(0, ()), ())
        with pytest.raises(ValueError, match="factor repeats an edge"):
            one_transmission_code(h, (0, 0))
        with pytest.raises(ValueError, match="factor uses an unknown edge label"):
            one_transmission_code(h, (0, 3))
        with pytest.raises(ValueError, match="edge 2 overlaps the rest of the factor"):
            one_transmission_code(h, (0, 2))
        with pytest.raises(ValueError, match="factor leaves a user uncovered"):
            one_transmission_code(h, (0,))


class TestVerifyCircularArc:
    def test_intervals_pass(self):
        h = Hypergraph(4, edges({0, 1}, {1, 2, 3}))
        assert verify_circular_arc(h, (0, 1, 2, 3))

    def test_split_edge_fails(self):
        h = Hypergraph(4, edges({0, 2}))
        assert not verify_circular_arc(h, (0, 1, 2, 3))

    def test_wrap_around_edge_passes(self):
        h = Hypergraph(4, edges({3, 0}))
        assert verify_circular_arc(h, (0, 1, 2, 3))

    def test_trivial_edges_pass(self):
        h = Hypergraph(3, edges(set(), {1}, {0, 1, 2}))
        assert verify_circular_arc(h, (0, 1, 2))

    def test_other_orders_can_repair_an_edge(self):
        h = Hypergraph(4, edges({0, 2}))
        assert verify_circular_arc(h, (0, 2, 1, 3))

    def test_non_permutation_rejected(self):
        h = Hypergraph(3, ())
        with pytest.raises(ValueError):
            verify_circular_arc(h, (0, 1))
        with pytest.raises(ValueError):
            verify_circular_arc(h, (0, 1, 1))

    def test_matches_rotation_brute_force(self):
        # random subsets, and runs of a shuffled order that often wrap past
        # its end; n = 1, empty and full edges come up many times
        rng = seeded(408)
        for _ in range(400):
            n = rng.randint(1, 9)
            order = rng.sample(range(n), n)
            sets = []
            for _ in range(rng.randint(0, 5)):
                if rng.random() < 0.5:
                    sets.append(frozenset(rng.sample(range(n), rng.randint(0, n))))
                else:
                    start, length = rng.randrange(n), rng.randint(0, n)
                    sets.append(frozenset(order[(start + k) % n] for k in range(length)))
            for e in sets:
                got = verify_circular_arc(Hypergraph(n, edges(e)), order)
                assert got == brute_is_arc(e, order), (n, order, e)
            got = verify_circular_arc(Hypergraph(n, edges(*sets)), order)
            assert got == all(brute_is_arc(e, order) for e in sets)


class TestSchemePreconditions:
    def test_needs_t_one(self):
        inst = build_complete_s(4, 2, {1})
        with pytest.raises(ValueError):
            circular_arc_scheme_with_trace(inst, tuple(range(inst.n)))[0]

    def test_needs_users(self):
        inst = Instance(m=2, t=1, users=())
        with pytest.raises(ValueError):
            circular_arc_scheme_with_trace(inst, ())[0]

    def test_every_user_must_miss_something(self):
        # a lone user holding everything is not a PICOD(1) instance at all,
        # so the scheme needs no coverage check of its own
        with pytest.raises(ValueError, match=r"\(user 1\): side information of size 2"):
            Instance(m=2, t=1, users=(frozenset({0, 1}),))

    def test_edges_must_be_arcs(self):
        inst = arc_instance(4, [frozenset({0, 2}), frozenset({1, 3})])
        with pytest.raises(ValueError):
            circular_arc_scheme_with_trace(inst, (0, 1, 2, 3))[0]
        # a reordering that makes both edges contiguous is accepted
        code = circular_arc_scheme_with_trace(inst, (0, 2, 1, 3))[0]
        assert code.ell <= 2


    def test_factor_search_overflow_propagates(self):
        # a factor exists, so reading the overflow as "none" would wrongly
        # fall back to the two-row construction
        inst = build_complete_s(3, 1, {2})
        with pytest.raises(SearchOverflow, match="exceeded 0 nodes"):
            circular_arc_scheme_with_trace(inst, (0, 1, 2), node_cap=0)


class TestSchemeExamples:
    def test_triangle_needs_two_rows(self):
        inst = build_complete_s(3, 1, {1})
        code, trace = circular_arc_scheme_with_trace(inst, (0, 1, 2))
        assert trace.factor is None
        # edge 0 = {1,2} sits inside the union of the other two and is dropped
        assert trace.dropped == [0]
        assert code.rows == ((0, 1, 1), (0, 0, 1))
        assert is_valid(code, inst).valid

    def test_deterministic(self):
        inst = build_complete_s(3, 1, {1})
        a = circular_arc_scheme_with_trace(inst, (0, 1, 2))[0]
        b = circular_arc_scheme_with_trace(inst, (0, 1, 2))[0]
        assert a == b

    def test_exact_cover_collapses_to_one_row(self):
        # six wrap-around intervals; three of them partition the cycle, so a
        # single transmission serves everyone
        arcs = [
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
            frozenset({1, 2}),
            frozenset({3, 4}),
            frozenset({5, 0}),
        ]
        inst = arc_instance(6, arcs)
        code, trace = circular_arc_scheme_with_trace(inst, tuple(range(6)))
        assert trace.factor == (0, 1, 2)
        assert code.rows == ((1, 1, 1, 0, 0, 0),)
        assert is_valid(code, inst).valid

    def test_all_singletons_sum_everything(self):
        inst = build_complete_s(4, 1, {3})
        code = circular_arc_scheme_with_trace(inst, tuple(range(inst.n)))[0]
        assert code.rows == ((1, 1, 1, 1),)

    def test_gap_next_to_wrap_boundary(self):
        # nothing starts at position 0, and the jump skips the start of the
        # only arc covering 0, so the second pass must patch {0}
        arcs = [
            frozenset({5, 0}),
            frozenset({1, 2}),
            frozenset({3, 4, 5}),
        ]
        inst = arc_instance(6, arcs)
        code, trace = circular_arc_scheme_with_trace(inst, tuple(range(6)))
        assert trace.factor is None
        assert trace.dropped == []
        assert [j for j, _, _ in trace.selected] == [1, 2]
        assert trace.gap_covers == [([0], 0)]
        assert trace.wire()["gap_covers"] == [{"gap_positions": [1], "label": 1}]
        assert code.rows == ((0, 1, 1), (1, 1, 0))
        assert is_valid(code, inst).valid

    def test_two_separate_gaps(self):
        # the walk picks {0,1,2}, {4,5}, {7,0}; positions 3 and 6 stay
        # uncovered as two distinct runs, each patched by its own edge
        arcs = [
            frozenset({0, 1, 2}),
            frozenset({2, 3}),
            frozenset({4, 5}),
            frozenset({5, 6}),
            frozenset({7, 0}),
        ]
        inst = arc_instance(8, arcs)
        code, trace = circular_arc_scheme_with_trace(inst, tuple(range(8)))
        assert trace.factor is None
        assert code.rows == ((1, 0, 1, 0, 1), (1, 1, 0, 1, 0))
        assert trace.gap_covers == [([3], 1), ([6], 3)]
        assert is_valid(code, inst).valid

    def test_message_everyone_holds_is_never_sent(self):
        arcs = [
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 0}),
            frozenset(),
        ]
        inst = arc_instance(3, arcs)
        code = circular_arc_scheme_with_trace(inst, (0, 1, 2))[0]
        assert code.ell <= 2
        assert all(row[3] == 0 for row in code.rows)
        assert is_valid(code, inst).valid

    def test_relabeled_users_with_matching_order(self):
        arcs = [
            frozenset({5, 0}),
            frozenset({1, 2}),
            frozenset({3, 4, 5}),
        ]
        base = arc_instance(6, arcs)
        perm = (2, 4, 0, 5, 1, 3)  # new index k holds old user perm[k]
        shuffled = Instance(
            m=base.m, t=1, users=tuple(base.users[v] for v in perm)
        )
        inverse = tuple(perm.index(p) for p in range(6))
        code = circular_arc_scheme_with_trace(shuffled, inverse)[0]
        assert code.ell <= 2
        assert is_valid(code, shuffled).valid


def drop_dominated_restarting(arcs):
    """Drop the lowest-labelled edge inside the union of the others, then
    rescan from the start, until no edge is droppable."""
    arcs, dropped = dict(arcs), []
    while True:
        for label in sorted(arcs):
            others = 0
            for other, e in arcs.items():
                if other != label:
                    others |= e
            if not arcs[label] & ~others:
                del arcs[label]
                dropped.append(label)
                break
        else:
            return arcs, dropped


class TestDropDominated:
    def test_one_pass_matches_restarting_scan(self):
        rng = seeded(406)
        for _ in range(2000):
            width = rng.randint(1, 7)
            arcs = {j: rng.randrange(1 << width) or 1 for j in range(rng.randint(0, 8))}
            assert _drop_dominated(arcs) == drop_dominated_restarting(arcs)


class TestSchemeRandom:
    def test_random_arc_instances(self):
        rng = seeded(405)
        for _ in range(40):
            inst = random_arc_instance(rng, n_max=20, m_max=10)
            order = tuple(range(inst.n))
            code, trace = circular_arc_scheme_with_trace(inst, order)
            assert code.ell <= 2
            assert is_valid(code, inst).valid
            assert (trace.factor is not None) == (code.ell == 1)
            # the walk keys survivors by start: no two may share one
            masks = {j: e for j, e in enumerate(network_topology(inst).edges) if e}
            survivors, _ = _drop_dominated(masks)
            starts = [
                p for e in survivors.values() for p in range(inst.n)
                if e >> p & 1 and not e >> (p - 1) % inst.n & 1
            ]
            assert len(starts) == len(set(starts)) == len(survivors)
            assert all(e.keys() == {"label", "start", "length"} for e in trace.wire()["selected"])

    def test_selected_arcs_overlap_only_at_the_seam(self):
        rng = seeded(406)
        for _ in range(40):
            inst = random_arc_instance(rng, n_max=20, m_max=10)
            n = inst.n
            _, trace = circular_arc_scheme_with_trace(inst, tuple(range(n)))
            if trace.factor is not None:
                continue
            spans = [
                frozenset((start + k) % n for k in range(length))
                for _, start, length in trace.selected
            ]
            for a, b in itertools.combinations(range(len(spans)), 2):
                if (a, b) == (0, len(spans) - 1):
                    continue
                assert not spans[a] & spans[b]

    def test_gap_covers_are_single_edges(self):
        rng = seeded(407)
        for _ in range(40):
            inst = random_arc_instance(rng, n_max=20, m_max=10)
            topo = network_topology(inst)
            _, trace = circular_arc_scheme_with_trace(
                inst, tuple(range(inst.n))
            )
            for gap, label in trace.gap_covers:
                assert set(gap) <= members(topo.edges[label])

    def test_trace_serializes(self):
        inst = build_complete_s(3, 1, {1})
        _, trace = circular_arc_scheme_with_trace(inst, (0, 1, 2))
        obj = trace.wire()
        assert obj["factor"] is None
        assert obj["dropped"] == [1]
        assert {e["label"] for e in obj["selected"]} == {2, 3}
