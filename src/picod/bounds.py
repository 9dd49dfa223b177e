"""Lower bounds and closed-form optimal lengths for complete-S instances.

Two converse tools work on any instance:

* the acyclic-subgraph bound: fix one desired message per chosen user (the
  unicast expansion), draw an arc from a desired message to every message
  its user already holds, and measure the largest acyclic induced set; the
  minimum over all desired-set assignments lower-bounds the code length;
* the decoding-chain bound: walk users in some order and count how many of
  each user's desired messages are new relative to everything earlier users
  held or decoded.  The best ordering depends only on that union, so one
  search memoized on the union mask finds it exactly, and a state stops once
  it reaches the count of desired messages still outside the union.

Closed-form lengths cover consecutive size profiles, profiles whose
complement inside [0, m-t] is a consecutive run, one-size profiles, profiles
entirely below or above the middle layer, and profiles containing a
symmetric band around the middle: the paper's theorems, and nothing else.

An acyclic set is a message bitmask reachable from the empty set by steps
that add a message x desired by an entry holding nothing of the set so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .coding import LinearCode, build_partition_scheme, optimal_partition
from .errors import SearchOverflow
from .instance import (
    Assignment,
    Instance,
    SizeProfile,
    _as_sizes,
    assignment_to_lists,
    is_complete_s,
    user_choices,
    validate_assignment,
)
from .verifier import induced_assignment, is_valid

DEFAULT_MAIS_NODE_CAP = 5 * 10**6


def _close(
    fam: set[int], by_msg: dict[int, list[int]], todo: list[int], limit: int, added: list[int],
    budget: list[int],
) -> bool:
    """Add to fam and added, depth first, every set reachable from todo;
    members of fam count as closed.  Returns False once a candidate holds
    more than limit messages, leaving it on todo so a larger limit resumes.

    budget[0] is the number of pops left, shared by every call of one search;
    when it runs out, SearchOverflow is raised with proven=limit, since both
    callers only close at a limit that is already a proven lower bound.
    """
    while todo:
        if budget[0] <= 0:
            raise SearchOverflow(f"acyclic-set search spent its node budget at {limit}", proven=limit)
        budget[0] -= 1
        u = todo.pop()
        if u in fam:
            continue
        if u.bit_count() > limit:
            todo.append(u)
            return False
        fam.add(u)
        added.append(u)
        for x, masks in by_msg.items():
            if not u >> x & 1 and any(a & u == 0 for a in masks):
                todo.append(u | 1 << x)
    return True


def mais(inst: Instance, assignment: Assignment, node_cap: int = DEFAULT_MAIS_NODE_CAP) -> int:
    """Exact maximum-acyclic-set size of one assignment's unicast expansion:
    the first k whose family closes without a set of k + 1 messages.

    Raises SearchOverflow after node_cap popped sets; its `proven` is the k
    reached, a lower bound on the answer.
    """
    validate_assignment(inst, assignment)
    by_msg: dict[int, list[int]] = {}
    for a, ds in zip(inst.masks, assignment):
        for d in sorted(ds):
            by_msg.setdefault(d, []).append(a)
    fam, todo, k, budget = set(), [0], 0, [node_cap]
    # no acyclic set exceeds the distinct desired messages, so stop there
    while k < len(by_msg) and not _close(fam, by_msg, todo, k, [], budget):
        k += 1
    return k


def min_mais_lower_bound(
    inst: Instance,
    node_cap: int = DEFAULT_MAIS_NODE_CAP,
) -> tuple[int, Assignment]:
    """Minimum of mais() over every assignment, with one minimizing witness.

    Runs an ascending-target existence search: for each candidate value v,
    a depth-first scan assigns users one by one and prunes any prefix whose
    partial acyclic bound already exceeds v (extending an assignment never
    shrinks the bound).  The first target with a surviving full assignment
    is the exact minimum.

    The scan keeps the family of acyclic sets of the current prefix instead
    of re-solving the bound.  Giving user i (side information A) the set d
    seeds U | x for each member U disjoint from A and x in d outside U, closes
    the family from the seeds and prunes once a set of v + 1 messages appears;
    backtracking removes exactly the sets added.  The seeds suffice: the steps
    of a new set before the first that needs a new entry use old entries only,
    so they end in the parent's family, complete since it held no set above v.

    The whole search, over every target, pops at most node_cap sets.  Past
    that it raises SearchOverflow whose `proven` is the target it was working
    on: every smaller value was refuted, so the minimum is at least that.

    On a complete-S instance (`is_complete_s`) every message permutation maps
    the instance to itself.  At depth i the messages split into cells, the
    atoms of A_0, d_0, ..., A_{i-1}, d_{i-1}, A_i; a permutation keeping each
    cell fixes users 0..i (their side information is distinct) and reorders
    only later users.  So choices of user i with equal counts |d & cell| in
    every cell have the same surviving completions, and only the first per
    count vector is tried (at depth 0, user 0's first choice).  The full
    scan's first surviving choice is the first of its orbit, so value and
    witness agree with it.  Elsewhere each message is its own cell.
    """
    if inst.n == 0:
        return 0, ()

    choices = [[(d, sum(1 << x for x in d)) for d in user_choices(inst, i)]
               for i in range(inst.n)]
    amask = inst.masks
    cells0 = [(1 << inst.m) - 1] if is_complete_s(inst) else [1 << x for x in range(inst.m)]

    def refine(cells: list[int], s: int) -> list[int]:
        return [p for c in cells for p in (c & s, c & ~s) if p]

    # the acyclic sets of the current prefix; a failed search restores both
    fam = {0}
    by_msg: dict[int, list[int]] = {x: [] for x in range(inst.m)}
    budget = [node_cap]

    def dfs(
        i: int, target: int, picked: list[frozenset[int]], cells: list[int]
    ) -> tuple[frozenset[int], ...] | None:
        if i == inst.n:
            return tuple(picked)
        a = amask[i]
        cells = refine(cells, a)
        tried: set[tuple[int, ...]] = set()
        for d, dm in choices[i]:
            if len(cells) < inst.m:
                key = tuple((dm & c).bit_count() for c in cells)
                if key in tried:
                    continue
                tried.add(key)
            for x in d:
                by_msg[x].append(a)
            seeds = [u | 1 << x for u in fam if u & a == 0 for x in d if not u >> x & 1]
            added: list[int] = []
            if _close(fam, by_msg, seeds, target, added, budget):
                picked.append(d)
                found = dfs(i + 1, target, picked, refine(cells, dm))
                if found is not None:
                    return found
                picked.pop()
            fam.difference_update(added)
            for x in d:
                by_msg[x].pop()
        return None

    # t is a sound start: one user's t desired messages form an acyclic set
    for target in range(inst.t, inst.m + 1):
        witness = dfs(0, target, [], cells0)
        if witness is not None:
            return target, witness
    raise AssertionError("no assignment found below the trivial bound")


# ---------- decoding chains ----------


def chain_bound(inst: Instance, assignment: Assignment, ordering: Sequence[int]) -> int:
    """Sum over the ordering of each user's desired messages not yet seen.

    `ordering` may visit any subset of users, each at most once.
    """
    validate_assignment(inst, assignment)
    if len(set(ordering)) != len(ordering):
        raise ValueError("ordering repeats a user")
    seen: set[int] = set()
    total = 0
    for i in ordering:
        a, d = inst.users[i], assignment[i]
        total += len(d - seen)
        seen |= a | d
    return total


@dataclass(frozen=True)
class ChainBoundResult:
    value: int
    ordering: tuple[int, ...]


def best_chain_bound(inst: Instance, assignment: Assignment) -> ChainBoundResult:
    """Best chain_bound over orderings, exact, with the first maximizing one.

    Let u be the union of everything the placed users held or desired.  A
    placed user's A | D lies inside u, so it adds nothing again and is never
    placed twice: the best continuation depends on u alone, and the search
    is memoized on u (at most 2^m states, one scan of the users each).
    Users adding nothing new are skipped, since placing one cannot raise any
    later term.  No continuation adds more than the desired messages outside
    u, so a state stops scanning once its best reaches that count; the first
    maximizer is kept, so the cut leaves the ordering unchanged.
    """
    validate_assignment(inst, assignment)
    dmask = [sum(1 << x for x in d) for d in assignment]
    adm = [a | d for a, d in zip(inst.masks, dmask)]
    wanted = 0
    for d in dmask:
        wanted |= d
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def f(u: int) -> tuple[int, tuple[int, ...]]:
        cached = memo.get(u)
        if cached is not None:
            return cached
        cap = (wanted & ~u).bit_count()
        best: tuple[int, tuple[int, ...]] = (0, ())
        for j in range(inst.n):
            if best[0] == cap:
                break
            inc = (dmask[j] & ~u).bit_count()
            if inc == 0:
                continue
            sub_val, sub_ord = f(u | adm[j])
            if inc + sub_val > best[0]:
                best = (inc + sub_val, (j,) + sub_ord)
        memo[u] = best
        return best

    return ChainBoundResult(*f(0))


# ---------- closed forms ----------

CONSECUTIVE = "consecutive"
COMPLEMENT_CONSECUTIVE = "complement-consecutive"
SINGLETON = "singleton"
BELOW_MIDDLE = "below-middle"
ABOVE_MIDDLE = "above-middle"
MIDDLE_BAND = "middle-band"


def closed_form_length(m: int, t: int, profile: SizeProfile | Iterable[int]) -> tuple[int, str] | None:
    """Optimal length of the complete-S instance when a known result applies.

    Returns (value, rule name) or None.  Rules are tried in a fixed priority
    order; the consecutive rule is reserved for profiles of two or more
    sizes so that one-size profiles report under their own rule (the values
    agree either way).
    """
    prof = _as_sizes(profile, m, t)
    smin, smax = prof.smin, prof.smax
    sizes = prof.sizes

    if prof.is_consecutive and len(sizes) >= 2:
        return min(smax + t, m - smin), CONSECUTIVE
    if 0 in sizes and (m - t) in sizes:
        comp = sorted(set(range(m - t + 1)) - sizes)
        if comp and comp[-1] - comp[0] + 1 == len(comp):
            return min(m, len(sizes) + 2 * t - 2), COMPLEMENT_CONSECUTIVE
    if len(sizes) == 1:
        s = smin
        return min(s + t, m - s), SINGLETON
    lo_mid = (m - t) // 2
    hi_mid = (m - t + 1) // 2
    if smax <= lo_mid:
        return smax + t, BELOW_MIDDLE
    if smin >= hi_mid:
        return m - smin, ABOVE_MIDDLE
    delta = min(smax - hi_mid, lo_mid - smin)
    if delta >= 0 and set(range(lo_mid - delta, hi_mid + delta + 1)) <= sizes:
        return min(smax + t, m - smin), MIDDLE_BAND
    return None


# ---------- combined report ----------

MAIS_EXACT = "mais-exact"
MAIS_PARTIAL = "mais-partial"


@dataclass(frozen=True)
class BoundReport:
    m: int
    t: int
    sizes: tuple[int, ...]
    lower_bound: int
    lower_bound_method: str
    achieved: int
    closed_form: tuple[int, str] | None
    witness_code: LinearCode
    witness_assignment: Assignment

    @property
    def tight(self) -> bool:
        return self.lower_bound == self.achieved

    def __post_init__(self) -> None:
        if self.closed_form is not None:
            v = self.closed_form[0]
            if not self.lower_bound <= v <= self.achieved:
                raise ValueError(
                    f"closed form {v} outside [{self.lower_bound}, {self.achieved}]"
                )

    def wire(self) -> dict:
        return {
            "m": self.m,
            "t": self.t,
            "S": list(self.sizes),
            "lower_bound": self.lower_bound,
            "lower_bound_method": self.lower_bound_method,
            "achieved": self.achieved,
            "tight": self.tight,
            "closed_form": None
            if self.closed_form is None
            else {"value": self.closed_form[0], "rule": self.closed_form[1]},
            "witness_code": self.witness_code.wire(),
            "witness_assignment": assignment_to_lists(self.witness_assignment),
        }


def full_report(
    inst: Instance,
    q: int | None = None,
    node_cap: int = DEFAULT_MAIS_NODE_CAP,
) -> BoundReport:
    """Bounds, closed form, and a verified witness code for one complete-S
    instance, its users in any order; S is the set of their sizes.

    The lower bound is the exact assignment-minimized acyclic bound
    (mais-exact) when its search finishes within node_cap popped sets.
    Otherwise it is the value the search had proven when the budget ran out
    (mais-partial): sound, since every smaller value was refuted, but
    possibly below the exact bound; the witness assignment is then the one
    the scheme induces.  Either way it lists users in inst's order.
    """
    if not inst.users or not is_complete_s(inst):
        raise ValueError("instance is not complete for any size profile")
    prof = SizeProfile(frozenset(len(a) for a in inst.users))
    closed = closed_form_length(inst.m, inst.t, prof)
    code = build_partition_scheme(optimal_partition(inst.m, inst.t, prof), q)
    if not is_valid(code, inst).valid:
        raise AssertionError("partition scheme failed verification")
    try:
        lower, witness_assignment = min_mais_lower_bound(inst, node_cap)
        method = MAIS_EXACT
    except SearchOverflow as exc:
        lower, method = exc.proven, MAIS_PARTIAL
        witness_assignment = induced_assignment(code, inst)
    return BoundReport(
        m=inst.m,
        t=inst.t,
        sizes=prof.sorted(),
        lower_bound=lower,
        lower_bound_method=method,
        achieved=code.ell,
        closed_form=closed,
        witness_code=code,
        witness_assignment=witness_assignment,
    )
