"""Independent reference oracles used to cross-check the package.

Everything here is deliberately reimplemented from first principles with
plain enumeration, so a test never validates a function against itself.
"""

import itertools
import math
import random

from picod.instance import Instance


# ---------------------------------------------------------------------------
# finite-field brute force


def vec_add(u, v, q):
    return tuple((a + b) % q for a, b in zip(u, v))


def vec_scale(c, v, q):
    return tuple((c * a) % q for a in v)


def span_vectors(rows, q):
    """Every vector in the row span, by closing under addition and scaling."""
    m = len(rows[0]) if rows else 0
    seen = {tuple([0] * m)}
    frontier = list(seen)
    while frontier:
        base = frontier.pop()
        for row in rows:
            for c in range(1, q):
                cand = vec_add(base, vec_scale(c, row, q), q)
                if cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
    return seen


def brute_row_space_count(m, ell, q):
    """Number of ell-dimensional subspaces of GF(q)^m: the distinct spans of
    every ell x m matrix of full rank, whose span holds q^ell vectors."""
    spaces = set()
    for flat in itertools.product(range(q), repeat=ell * m):
        rows = [tuple(flat[r * m : (r + 1) * m]) for r in range(ell)]
        span = frozenset(span_vectors(rows, q))
        if len(span) == q**ell:
            spaces.add(span)
    return len(spaces)


def iter_row_spaces(m, ell, q):
    """One canonical reduced-echelon basis per ell-dimensional row space."""
    if ell == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(m), ell):
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
        for fill in itertools.product(range(q), repeat=len(free)):
            rows = [list(row) for row in base]
            for (r, c), v in zip(free, fill):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


def brute_det(matrix, q):
    """Determinant mod q of a square matrix, as the Leibniz sum over every
    permutation, signed by its inversion count."""
    k = len(matrix)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2))
        total += (-1) ** inversions * math.prod(row[j] for row, j in zip(matrix, perm))
    return total % q


def brute_closure(q, rows, m, known):
    """Messages recoverable from the rows plus the known messages.

    Fixpoint of: d is recoverable when the unit vector e_d lies in the span
    of the code rows and the unit vectors of everything already known.
    """
    have = set(known)
    while True:
        basis = [tuple(rows[i]) for i in range(len(rows))]
        for k in sorted(have):
            basis.append(tuple(1 if j == k else 0 for j in range(m)))
        vectors = span_vectors(basis, q) if basis else {tuple([0] * m)}
        grew = False
        for d in range(m):
            if d in have:
                continue
            unit = tuple(1 if j == d else 0 for j in range(m))
            if unit in vectors:
                have.add(d)
                grew = True
        if not grew:
            return frozenset(have)


def brute_code_valid(q, rows, inst):
    """A user is served when it can recover >= t messages outside its set."""
    for a in inst.users:
        got = brute_closure(q, rows, inst.m, a)
        if len(got - a) < inst.t:
            return False
    return True


def brute_min_linear_ell(inst, q, ell_max):
    """Smallest row count over every matrix with entries in GF(q), or None."""
    cells = list(range(q))
    for ell in range(0, ell_max + 1):
        for flat in itertools.product(cells, repeat=ell * inst.m):
            rows = [
                tuple(flat[r * inst.m : (r + 1) * inst.m]) for r in range(ell)
            ]
            if brute_code_valid(q, rows, inst):
                return ell
    return None


# ---------------------------------------------------------------------------
# assignments and acyclic-set brute force


def assignment_count(inst):
    """Number of ways every user can pick t messages it does not hold."""
    return math.prod(math.comb(inst.m - len(a), inst.t) for a in inst.users)


def enumerate_assignments(inst):
    """Every assignment in lexicographic order: the last user's choice varies
    fastest, and each user's t-subsets of the messages it lacks come in
    ascending order."""
    per_user = []
    for a in inst.users:
        lacking = [x for x in range(inst.m) if x not in a]
        per_user.append([frozenset(c) for c in itertools.combinations(lacking, inst.t)])
    return itertools.product(*per_user)


def unicast_expansion(inst, assignment):
    """One (side information, desired message) entry per desired message."""
    return [(a, x) for a, d in zip(inst.users, assignment) for x in sorted(d)]


def brute_mais(inst, assignment):
    """Largest acyclic set of unicast entries with distinct desired messages.

    Builds the digraph explicitly for every candidate subset and checks
    acyclicity with Kahn's algorithm.
    """
    entries = unicast_expansion(inst, assignment)
    n = len(entries)
    # no subset larger than the number of distinct desired messages can work
    distinct = len({x for _, x in entries})
    for size in range(min(n, distinct), 0, -1):
        for sub in itertools.combinations(range(n), size):
            msgs = [entries[i][1] for i in sub]
            if len(set(msgs)) != size:
                continue
            indeg = {i: 0 for i in sub}
            adj = {i: [] for i in sub}
            for i in sub:
                for j in sub:
                    if i != j and entries[j][1] in entries[i][0]:
                        adj[i].append(j)
                        indeg[j] += 1
            stack = [i for i in sub if indeg[i] == 0]
            seen = 0
            while stack:
                v = stack.pop()
                seen += 1
                for w in adj[v]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        stack.append(w)
            if seen == size:
                return size
    return 0


def brute_min_mais(inst, assignments):
    return min(brute_mais(inst, d) for d in assignments)


# ---------------------------------------------------------------------------
# partition brute force


def iter_set_partitions(items):
    """Every partition of items into non-empty unordered parts."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in iter_set_partitions(rest):
        yield [[head]] + [list(p) for p in partial]
        for i in range(len(partial)):
            grown = [list(p) for p in partial]
            grown[i].append(head)
            yield grown


def brute_best_partition_cost(m, t, sizes):
    """Minimum total cost over every set partition, parts costed by
    min(m - min(part), max(part) + t)."""
    best = None
    for parts in iter_set_partitions(sorted(sizes)):
        total = sum(min(m - min(p), max(p) + t) for p in parts)
        if best is None or total < best:
            best = total
    return best


# ---------------------------------------------------------------------------
# exact-cover brute force


def brute_exact_cover(n_vertices, edges):
    """Exact cover by label subset, via exhaustive subset enumeration.

    Returns a sorted label tuple or None.  Edges is a list of vertex sets.
    """
    labels = list(range(len(edges)))
    full = frozenset(range(n_vertices))
    for r in range(0, len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            union = set()
            total = 0
            for j in combo:
                union |= edges[j]
                total += len(edges[j])
            if total == n_vertices and union == full:
                return tuple(combo)
    return None


# ---------------------------------------------------------------------------
# circular-arc brute force


def brute_is_arc(edge, order):
    """Some rotation of the cyclic order puts the edge's vertices at
    consecutive positions.  The empty edge counts as an arc."""
    order = list(order)
    for r in range(max(len(order), 1)):
        rotated = order[r:] + order[:r]
        pos = [k for k, v in enumerate(rotated) if v in edge]
        if not pos or pos[-1] - pos[0] + 1 == len(pos):
            return True
    return False


# ---------------------------------------------------------------------------
# intersection-family brute force


def brute_family_witness(blocks, ground_size):
    """Smallest non-empty index set P with |intersection over P| = |P| - 1."""
    idx = list(range(len(blocks)))
    for r in range(1, len(blocks) + 1):
        for combo in itertools.combinations(idx, r):
            inter = frozenset(range(ground_size))
            for k in combo:
                inter &= blocks[k]
            if len(inter) == r - 1:
                return combo
    return None


# ---------------------------------------------------------------------------
# decoding chains


def brute_best_chain(inst, assignment):
    """Largest chain total over every sequence of distinct users in which each
    user desires a message that no earlier user held or desired.

    Plain depth-first search over the sequences, with no memo and no cut.
    """

    def walk(seen, placed):
        best = 0
        for i, (a, d) in enumerate(zip(inst.users, assignment)):
            new = d - seen
            if i in placed or not new:
                continue
            best = max(best, len(new) + walk(seen | a | d, placed | {i}))
        return best

    return walk(frozenset(), frozenset())


# ---------------------------------------------------------------------------
# random generators


def random_instance(rng, m_max=6, n_max=10, t=1, n_min=1):
    """A valid instance with arbitrary (possibly repeated) side-info sets."""
    m = rng.randint(max(2, t + 1), m_max)
    n = rng.randint(n_min, n_max)
    users = []
    for _ in range(n):
        size = rng.randint(0, m - t)
        users.append(frozenset(rng.sample(range(m), size)))
    return Instance(m=m, t=t, users=tuple(users))


def random_arc_instance(rng, n_max=30, m_max=12):
    """An instance whose topology is circular-arc in the identity order.

    Draws random arcs until every position is missed by at least one arc,
    then gives user i exactly the messages whose arc avoids position i.
    """
    for _ in range(1000):
        n = rng.randint(3, n_max)
        m = rng.randint(2, m_max)
        arcs = []
        for _ in range(m):
            start = rng.randrange(n)
            length = rng.randint(1, n - 1)
            arcs.append(frozenset((start + k) % n for k in range(length)))
        covered = set()
        for arc in arcs:
            covered |= arc
        if len(covered) < n:
            continue
        users = tuple(
            frozenset(j for j in range(m) if i not in arcs[j]) for i in range(n)
        )
        return Instance(m=m, t=1, users=users)
    raise AssertionError("no covered arc family found in 1000 draws")


def random_assignment(rng, inst):
    out = []
    for a in inst.users:
        pool = sorted(set(range(inst.m)) - a)
        out.append(frozenset(rng.sample(pool, inst.t)))
    return tuple(out)


def seeded(seed):
    return random.Random(seed)
