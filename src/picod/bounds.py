"""Lower bounds and closed-form optimal lengths for complete-S instances.

Two converse tools work on any instance:

* the acyclic-subgraph bound: fix one desired message per chosen user (the
  unicast expansion), draw an arc from a desired message to every message
  its user already holds, and measure the largest acyclic induced set; the
  minimum over all desired-set assignments lower-bounds the code length;
* the decoding-chain bound: walk users in some order and count how many of
  each user's desired messages are new relative to everything earlier users
  held or decoded.  The best ordering's count is the assignment's acyclic
  bound, so it is read off one acyclic set of that size found by the same
  search.

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
    _as_sizes,
    assignment_to_lists,
    user_choices,
    validate_assignment,
)
from .verifier import is_valid

DEFAULT_MAIS_NODE_CAP = 5 * 10**6


def _close(
    fam: set[int], by_msg: list[tuple[int, list[int]]], todo: list[int], limit: int,
    added: list[int], budget: list[int],
) -> bool:
    """Add to fam and added, depth first, every set reachable from todo;
    members of fam count as closed.  Returns False once a candidate holds
    more than limit messages, leaving it on todo so a larger limit resumes.
    by_msg has one (1 << x, live list of the masks desiring x) pair per message.

    budget[0] is the number of pops left, shared by every call of one search;
    when it runs out, SearchOverflow is raised with proven=limit, since both
    callers only close at a limit that is already a proven lower bound.
    """
    pop, push, keep, log = todo.pop, todo.append, fam.add, added.append
    while todo:
        if budget[0] <= 0:
            raise SearchOverflow(f"acyclic-set search spent its node budget at {limit}", proven=limit)
        budget[0] -= 1
        u = pop()
        if u in fam:
            continue
        if u.bit_count() > limit:
            push(u)
            return False
        keep(u)
        log(u)
        for bit, masks in by_msg:
            if not u & bit:
                for a in masks:
                    if not a & u:
                        push(u | bit)
                        break
    return True


def _mais_set(inst: Instance, assignment: Assignment, node_cap: int) -> tuple[int, int]:
    """mais() and one acyclic set of that many messages, as a mask: the set
    that stopped the close at k - 1 (0 when k is 0)."""
    validate_assignment(inst, assignment)
    by_msg: dict[int, list[int]] = {}
    for a, ds in zip(inst.masks, assignment):
        for d in sorted(ds):
            by_msg.setdefault(1 << d, []).append(a)
    pairs, fam, todo, k, budget = list(by_msg.items()), set(), [0], 0, [node_cap]
    largest = 0
    # no acyclic set exceeds the distinct desired messages, so stop there
    while k < len(pairs) and not _close(fam, pairs, todo, k, [], budget):
        k, largest = k + 1, todo[-1]
    return k, largest


def mais(inst: Instance, assignment: Assignment, node_cap: int = DEFAULT_MAIS_NODE_CAP) -> int:
    """Exact maximum-acyclic-set size of one assignment's unicast expansion:
    the first k whose family closes without a set of k + 1 messages.

    Raises SearchOverflow after node_cap popped sets; its `proven` is the k
    reached, a lower bound on the answer.
    """
    return _mais_set(inst, assignment, node_cap)[0]


def min_mais_lower_bound(
    inst: Instance, node_cap: int = DEFAULT_MAIS_NODE_CAP
) -> tuple[int, Assignment]:
    """Minimum of mais() over every assignment, with one minimizing witness.

    Runs an ascending-target existence search: for each candidate value v,
    a depth-first scan assigns users one by one and prunes any prefix whose
    partial acyclic bound already exceeds v (extending an assignment never
    shrinks the bound).  The first target with a surviving full assignment
    is the exact minimum.

    The scan keeps the family of acyclic sets of the current prefix, and for
    each message x one (1 << x, entries) pair that all choices holding x share.
    Giving user i (side information A) the set d adds A to the entries of d,
    seeds U | x for each member U disjoint from A and x in d outside U, closes
    the family from the seeds and prunes once a set of v + 1 messages appears;
    backtracking removes exactly what was added.  The seeds suffice: the steps
    of a new set before the first that needs a new entry use old entries only,
    so they end in the parent's family, complete since it held no set above v.

    A forced user, one with |A| = m - t, has a single choice, so its entries
    are in every assignment.  They go into the pairs before the scan, and
    the family is closed from them once: a set they build lies inside the t
    messages one forced user lacks, so the closure never exceeds the first
    target t, and every target's scan starts from it.  The scan walks only
    the other users, in order, and the witness puts each forced user's
    choice back in its place.  Pruning a prefix earlier this way changes no
    full assignment's fate, so the first surviving one, and with it value
    and witness, are those of the scan over every user.

    The whole search, over every target, pops at most node_cap sets, the
    forced layer's closure included.  Past that it raises SearchOverflow
    whose `proven` is the target it was working on: every smaller value was
    refuted, so the minimum is at least that.

    On a complete-S instance (`inst.complete_s_sizes`) every message permutation maps
    the instance to itself.  At depth i of the scan the messages split into
    cells, the atoms of A_0, d_0, ..., A_{i-1}, d_{i-1}, A_i over the scanned
    users; a permutation keeping each cell fixes those users (their side
    information is distinct), maps the forced layer (every A of size m - t,
    with its one choice) to itself and reorders only later users.  So
    choices of user i with equal counts |d & cell| in every cell have the
    same surviving completions, and only the first per count vector is tried
    (at depth 0, the first choice).  The full scan's first surviving choice
    is the first of its orbit, so value and witness agree with it.
    Elsewhere each message is its own cell.  Once all cells are singletons,
    refining and counting prune nothing and are skipped.
    """
    cells0 = [(1 << inst.m) - 1] if inst.complete_s_sizes else [1 << x for x in range(inst.m)]

    def refine(cells: list[int], s: int) -> list[int]:
        return [p for c in cells for p in (c & s, c & ~s) if p]

    # the acyclic sets of the forced layer and the current prefix; a failed
    # search restores both to the forced layer's
    fam = {0}
    by_msg: list[tuple[int, list[int]]] = [(1 << x, []) for x in range(inst.m)]
    forced = {i: a for i, a in enumerate(inst.masks) if inst.m - a.bit_count() == inst.t}
    for a in forced.values():
        for b, masks in by_msg:
            if not a & b:
                masks.append(a)
    budget = [node_cap]
    # a forced entry adds x to U only if U + x lies in its t missing messages,
    # so this closes: the forced layer's family holds no set above t
    _close(fam, by_msg, [b for b, masks in by_msg if masks], inst.t, [], budget)
    rest = [i for i in range(inst.n) if i not in forced]
    choices: list[list[tuple]] = []  # per user of rest, built when the scan first reaches it

    def dfs(
        j: int, target: int, picked: list[frozenset[int]], cells: list[int]
    ) -> list[frozenset[int]] | None:
        if j == len(rest):
            return picked
        i = rest[j]
        if j == len(choices):
            choices.append([(d, sum(1 << x for x in d), [by_msg[x] for x in d])
                            for d in user_choices(inst, i)])
        a = inst.masks[i]
        cells = refine(cells, a) if len(cells) < inst.m else cells
        orbits = len(cells) < inst.m
        tried: set[tuple[int, ...]] = set()
        for d, dm, pairs in choices[j]:
            if orbits:
                key = tuple((dm & c).bit_count() for c in cells)
                if key in tried:
                    continue
                tried.add(key)
            for _, masks in pairs:
                masks.append(a)
            seeds = [u | b for u in fam if not u & a for b, _ in pairs if not u & b]
            added: list[int] = []
            if _close(fam, by_msg, seeds, target, added, budget):
                picked.append(d)
                found = dfs(j + 1, target, picked, refine(cells, dm) if orbits else cells)
                if found is not None:
                    return found
                picked.pop()
            fam.difference_update(added)
            for _, masks in pairs:
                masks.pop()
        return None

    # t is a sound start: one user's t desired messages form an acyclic set
    for target in range(inst.t if inst.n else 0, inst.m + 1):
        found = dfs(0, target, [], cells0)
        if found is not None:
            picked = iter(found)
            return target, tuple(
                user_choices(inst, i)[0] if i in forced else next(picked) for i in range(inst.n)
            )
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
    """Best chain_bound over orderings, with one maximizing ordering.

    The best chain is the assignment's mais().  Any chain's new messages, in
    reverse order, form an acyclic set.  Conversely, the last step of an
    acyclic set X's build gives a user that desires part of X and holds none
    of it; placing that user and removing what it desires leaves an acyclic
    set, so repeating counts every message of X once.  The search spends
    DEFAULT_MAIS_NODE_CAP popped sets and raises SearchOverflow past it.
    """
    value, left = _mais_set(inst, assignment, DEFAULT_MAIS_NODE_CAP)
    dmask = [sum(1 << x for x in d) for d in assignment]
    ordering: list[int] = []
    while left:
        i = next(i for i, (a, d) in enumerate(zip(inst.masks, dmask)) if d & left and not a & left)
        ordering.append(i)
        left &= ~dmask[i]
    return ChainBoundResult(value, tuple(ordering))


# ---------- closed forms ----------

CONSECUTIVE = "consecutive"
COMPLEMENT_CONSECUTIVE = "complement-consecutive"
SINGLETON = "singleton"
BELOW_MIDDLE = "below-middle"
ABOVE_MIDDLE = "above-middle"
MIDDLE_BAND = "middle-band"


def closed_form_length(m: int, t: int, sizes: Iterable[int]) -> tuple[int, str] | None:
    """Optimal length of the complete-S instance when a known result applies.

    Returns (value, rule name) or None.  Complement-consecutive S has its own
    value; every other rule only names the theorem that applies, whose value
    is min(s_max + t, m - s_min), the cheaper one-group partition scheme
    (below the middle s_max + s_min <= m - t, so it is s_max + t; above it,
    m - s_min).  One-size S reports as singleton, not consecutive.
    """
    vals = _as_sizes(sizes, m, t)
    smin, smax = vals[0], vals[-1]
    comp = sorted(set(range(m - t + 1)).difference(vals))
    if smin == 0 and smax == m - t and comp and comp[-1] - comp[0] + 1 == len(comp):
        return min(m, len(vals) + 2 * t - 2), COMPLEMENT_CONSECUTIVE
    lo_mid, hi_mid = (m - t) // 2, (m - t + 1) // 2
    delta = min(smax - hi_mid, lo_mid - smin)
    if len(vals) == 1:
        rule = SINGLETON
    elif len(vals) == smax - smin + 1:
        rule = CONSECUTIVE
    elif smax <= lo_mid:
        rule = BELOW_MIDDLE
    elif smin >= hi_mid:
        rule = ABOVE_MIDDLE
    elif delta >= 0 and set(range(lo_mid - delta, hi_mid + delta + 1)).issubset(vals):
        rule = MIDDLE_BAND
    else:
        return None
    return min(smax + t, m - smin), rule


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


def full_report(inst: Instance, node_cap: int = DEFAULT_MAIS_NODE_CAP) -> BoundReport:
    """Bounds, closed form, and a verified witness code for one complete-S
    instance, its users in any order; S is the set of their sizes.

    The lower bound is the exact assignment-minimized acyclic bound
    (mais-exact) when its search finishes within node_cap popped sets.
    Otherwise it is the value the search had proven when the budget ran out,
    and the witness assignment is the one the scheme induces.  That value is
    sound, since every smaller value was refuted, and exact when it equals
    the scheme's length: the induced assignment's MAIS lies between them, as
    a code that serves an assignment is at least as long as its MAIS.  Below
    that length it may be below the exact bound (mais-partial).  Either way
    the witness lists users in inst's order.
    """
    sizes = inst.complete_s_sizes
    if not sizes:
        raise ValueError("instance is not complete for any size profile")
    closed = closed_form_length(inst.m, inst.t, sizes)
    code = build_partition_scheme(optimal_partition(inst.m, inst.t, sizes))
    report = is_valid(code, inst)
    if not report.valid:
        raise ValueError("partition scheme does not satisfy every user")
    try:
        lower, witness_assignment = min_mais_lower_bound(inst, node_cap)
        method = MAIS_EXACT
    except SearchOverflow as exc:
        lower, witness_assignment = exc.proven, report.assignment(inst.t)
        method = MAIS_EXACT if lower == code.ell else MAIS_PARTIAL
        if method == MAIS_EXACT:
            assert mais(inst, witness_assignment) == lower, "induced MAIS is not the code length"
    return BoundReport(
        m=inst.m,
        t=inst.t,
        sizes=sizes,
        lower_bound=lower,
        lower_bound_method=method,
        achieved=code.ell,
        closed_form=closed,
        witness_code=code,
        witness_assignment=witness_assignment,
    )
