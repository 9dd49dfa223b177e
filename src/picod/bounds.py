"""Lower bounds and closed-form optimal lengths for complete-S instances.

Two converse tools work on any instance:

* the acyclic-subgraph bound: fix one desired message per chosen user (the
  unicast expansion), draw an arc from a desired message to every message
  its user already holds, and measure the largest acyclic induced set; the
  minimum over all desired-set assignments lower-bounds the code length;
* the decoding-chain bound: walk users in some order and count how many of
  each user's desired messages are new relative to everything earlier users
  held or decoded.

Closed-form lengths cover consecutive size profiles, profiles whose
complement inside [0, m-t] is a consecutive run, one-size profiles, profiles
entirely below or above the middle layer, profiles containing a symmetric
band around the middle, and a verified table of the remaining m <= 5 cases.

An acyclic set is a message bitmask reachable from the empty set by steps
that add a message x desired by an entry holding nothing of the set so far.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .coding import LinearCode, build_partition_scheme, optimal_partition
from .errors import SearchOverflow
from .instance import (
    DEFAULT_USER_CAP,
    Assignment,
    Instance,
    SizeProfile,
    _as_sizes,
    build_complete_s,
    is_complete_s,
    user_choices,
    validate_assignment,
)
from .verifier import induced_assignment, is_valid

DEFAULT_MAIS_NODE_CAP = 5 * 10**6
DEFAULT_EXACT_CHAIN_LIMIT = 12


def unicast_expansion(inst: Instance, assignment: Assignment) -> tuple[tuple[frozenset[int], int], ...]:
    """Split every user into t single-demand users, one per desired message."""
    validate_assignment(inst, assignment)
    return tuple((a, d) for a, ds in zip(inst.users, assignment) for d in sorted(ds))


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

    On a complete-S instance (`is_complete_s`) user 0 is pinned to its first
    choice: the message permutations fixing A_0 map the instance to itself
    and reach every choice of user 0 at the same bound.  So a target survives
    the pinned scan iff it survives the full one, whose first subtree the
    pinned scan is; value and witness agree.  Elsewhere a pin is unsound.
    """
    if inst.n == 0:
        return 0, ()

    choices = [user_choices(inst, i) for i in range(inst.n)]
    if is_complete_s(inst):
        choices[0] = choices[0][:1]
    amask = inst.masks

    # the acyclic sets of the current prefix; a failed search restores both
    fam = {0}
    by_msg: dict[int, list[int]] = {x: [] for x in range(inst.m)}
    budget = [node_cap]

    def dfs(i: int, target: int, picked: list[frozenset[int]]) -> tuple[frozenset[int], ...] | None:
        if i == inst.n:
            return tuple(picked)
        a = amask[i]
        for d in choices[i]:
            for x in d:
                by_msg[x].append(a)
            seeds = [u | 1 << x for u in fam if u & a == 0 for x in d if not u >> x & 1]
            added: list[int] = []
            if _close(fam, by_msg, seeds, target, added, budget):
                picked.append(d)
                found = dfs(i + 1, target, picked)
                if found is not None:
                    return found
                picked.pop()
            fam.difference_update(added)
            for x in d:
                by_msg[x].pop()
        return None

    # t is a sound start: one user's t desired messages form an acyclic set
    for target in range(inst.t, inst.m + 1):
        witness = dfs(0, target, [])
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
    exact: bool
    ordering: tuple[int, ...]


def _greedy_chain(
    n: int, dmask: list[int], adm: list[int], m: int, first: int
) -> tuple[int, tuple[int, ...]]:
    used = 1 << first
    u = adm[first]
    total = bin(dmask[first]).count("1")
    order = [first]
    while True:
        best_key: tuple[int, int, int] | None = None
        best_j = -1
        for j in range(n):
            if used & (1 << j):
                continue
            inc = bin(dmask[j] & ~u).count("1")
            if inc == 0:
                continue
            growth = bin(adm[j] & ~u).count("1")
            key = (-inc, growth, j)
            if best_key is None or key < best_key:
                best_key = key
                best_j = j
        if best_j < 0:
            break
        used |= 1 << best_j
        total += -best_key[0]
        u |= adm[best_j]
        order.append(best_j)
        if total == m:
            break
    return total, tuple(order)


def best_chain_bound(
    inst: Instance,
    assignment: Assignment,
    exact_limit: int = DEFAULT_EXACT_CHAIN_LIMIT,
) -> ChainBoundResult:
    """Best chain_bound over orderings.

    Exact for small n via a subset-memoized search (the set of users already
    placed determines everything later), greedy multi-start beyond, flagged
    as inexact.  Users contributing nothing new are never placed, placing
    one cannot raise any later term.
    """
    validate_assignment(inst, assignment)
    n = inst.n
    if n == 0:
        return ChainBoundResult(0, True, ())
    dmask = [sum(1 << x for x in d) for d in assignment]
    adm = [a | d for a, d in zip(inst.masks, dmask)]

    if n <= exact_limit:
        memo: dict[int, tuple[int, tuple[int, ...]]] = {}

        def f(used: int, u: int) -> tuple[int, tuple[int, ...]]:
            cached = memo.get(used)
            if cached is not None:
                return cached
            best = (0, ())
            for j in range(n):
                if used & (1 << j):
                    continue
                inc = bin(dmask[j] & ~u).count("1")
                if inc == 0:
                    continue
                sub_val, sub_ord = f(used | (1 << j), u | adm[j])
                cand = (inc + sub_val, (j,) + sub_ord)
                if cand[0] > best[0]:
                    best = cand
            memo[used] = best
            return best

        value, ordering = f(0, 0)
        return ChainBoundResult(value, True, ordering)

    starts: dict[tuple[int, int], int] = {}
    for j in range(n):
        starts.setdefault((adm[j], dmask[j]), j)
    best_val, best_ord = 0, ()
    for first in starts.values():
        val, order = _greedy_chain(n, dmask, adm, inst.m, first)
        if val > best_val:
            best_val, best_ord = val, order
    return ChainBoundResult(best_val, False, tuple(best_ord))


# ---------- closed forms ----------

CONSECUTIVE = "consecutive"
COMPLEMENT_CONSECUTIVE = "complement-consecutive"
SINGLETON = "singleton"
BELOW_MIDDLE = "below-middle"
ABOVE_MIDDLE = "above-middle"
MIDDLE_BAND = "middle-band"
SMALL_M_TABLE = "small-m-table"

# Verified optimal lengths of the small cases no formula above covers.
_SMALL_M_TABLE: dict[tuple[int, frozenset[int], int], int] = {
    (4, frozenset({0, 2}), 1): 3,
    (4, frozenset({0, 2}), 2): 4,
    (4, frozenset({1, 3}), 1): 3,
    (5, frozenset({0, 3}), 1): 3,
    (5, frozenset({0, 3}), 2): 4,
    (5, frozenset({1, 4}), 1): 3,
    (5, frozenset({1, 3}), 1): 4,
    (5, frozenset({1, 3}), 2): 4,
    (5, frozenset({0, 1, 3}), 1): 4,
    (5, frozenset({1, 3, 4}), 1): 4,
    (5, frozenset({0, 2, 3}), 1): 4,
    (5, frozenset({0, 2, 4}), 1): 4,
    (5, frozenset({1, 2, 4}), 1): 4,
}


def small_m_table_rows() -> tuple[tuple[int, frozenset[int], int, int], ...]:
    """The (m, S, t, optimal length) rows of the embedded small-case table."""
    return tuple(sorted(((m, s, t, v) for (m, s, t), v in _SMALL_M_TABLE.items()),
                        key=lambda r: (r[0], sorted(r[1]), r[2])))


def closed_form_length(m: int, t: int, profile: SizeProfile | Iterable[int]) -> tuple[int, str] | None:
    """Optimal length of the complete-S instance when a known result applies.

    Returns (value, rule name) or None.  Rules are tried in a fixed priority
    order; the consecutive rule is reserved for profiles of two or more
    sizes so that one-size profiles report under their own rule (the values
    agree either way).
    """
    prof = _as_sizes(profile)
    if m < 1 or t < 1 or t > m:
        raise ValueError(f"need 1 <= t <= m, got m={m}, t={t}")
    if prof.smax > m - t:
        raise ValueError(f"sizes {prof.sorted()} exceed m - t = {m - t}")
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
    value = _SMALL_M_TABLE.get((m, frozenset(sizes), t))
    if value is not None:
        return value, SMALL_M_TABLE
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
    tight: bool
    closed_form: tuple[int, str] | None
    witness_code: LinearCode
    witness_assignment: Assignment

    def __post_init__(self) -> None:
        if self.tight != (self.lower_bound == self.achieved):
            raise ValueError("tightness flag disagrees with the bounds")
        if self.closed_form is not None:
            v = self.closed_form[0]
            if not self.lower_bound <= v <= self.achieved:
                raise ValueError(
                    f"closed form {v} outside [{self.lower_bound}, {self.achieved}]"
                )

    def to_json(self, pretty: bool = False) -> str:
        obj = {
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
            "witness_code": json.loads(self.witness_code.to_json()),
            "witness_assignment": [sorted(x + 1 for x in d) for d in self.witness_assignment],
        }
        return json.dumps(obj, indent=2 if pretty else None)


def full_report(
    m: int,
    t: int,
    profile: SizeProfile | Iterable[int],
    q: int | None = None,
    user_cap: int = DEFAULT_USER_CAP,
    node_cap: int = DEFAULT_MAIS_NODE_CAP,
) -> BoundReport:
    """Bounds, closed form, and a verified witness code for one complete-S case.

    The lower bound is the exact assignment-minimized acyclic bound
    (mais-exact) when its search finishes within node_cap popped sets.
    Otherwise it is the value the search had proven when the budget ran out
    (mais-partial): sound, since every smaller value was refuted, but
    possibly below the exact bound; the witness assignment is then the one
    the scheme induces.
    """
    prof = _as_sizes(profile)
    inst = build_complete_s(m, t, prof, user_cap=user_cap)
    plan = optimal_partition(m, t, prof)
    code = build_partition_scheme(plan, q)
    report = is_valid(code, inst)
    if not report.valid:
        raise AssertionError("partition scheme failed verification")
    achieved = code.ell
    try:
        lower, witness_assignment = min_mais_lower_bound(inst, node_cap)
        method = MAIS_EXACT
    except SearchOverflow as exc:
        lower, method = exc.proven, MAIS_PARTIAL
        witness_assignment = induced_assignment(code, inst)
    closed = closed_form_length(m, t, prof)
    return BoundReport(
        m=m,
        t=t,
        sizes=prof.sorted(),
        lower_bound=lower,
        lower_bound_method=method,
        achieved=achieved,
        tight=lower == achieved,
        closed_form=closed,
        witness_code=code,
        witness_assignment=witness_assignment,
    )
