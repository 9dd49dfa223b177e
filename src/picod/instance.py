"""Problem instances for pliable index coding with t demands, PICOD(t).

An instance has m messages and n users.  User i holds the messages in its
side-information set A_i and is happy once it can decode any t messages it
does not hold.  `Instance` checks this premise once, when it is built, and
the other modules trust it.  Message indices are 0-based internally and
1-based in the JSON wire format.  The helpers at the bottom of this module
convert instances and assignments to and from wire objects (plain dicts
and lists); coding, verifier, hypergraph and bounds build the wire objects
of their own types, and only cli reads or writes JSON text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, NoReturn

from .errors import CapExceeded

DEFAULT_USER_CAP = 10**6

# One decoding choice per user: a frozenset of t desired message indices,
# disjoint from that user's side information.
Assignment = tuple[frozenset[int], ...]


def _as_sizes(sizes: Iterable[int], m: int, t: int) -> tuple[int, ...]:
    """S sorted, checked to be a non-empty set of non-negative sizes that fits
    the PICOD(t) premise: 1 <= t <= m and no size above m - t."""
    vals = tuple(sorted(set(sizes)))
    if not vals:
        raise ValueError("size profile must be non-empty")
    if vals[0] < 0:
        raise ValueError("side-information sizes must be non-negative")
    if m < 1 or t < 1 or t > m:
        raise ValueError(f"need 1 <= t <= m, got m={m}, t={t}")
    if vals[-1] > m - t:
        raise ValueError(f"sizes {vals} exceed m - t = {m - t}")
    return vals


@dataclass(frozen=True)
class Instance:
    """m messages, t demands, one side-information set per user; valid by
    construction (1 <= t <= m, A_i within range(m), |A_i| <= m - t)."""

    m: int
    t: int
    users: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        m, t = self.m, self.t
        if m < 1:
            _invalid("instance", f"m must be >= 1, got {m}")
        if t < 1:
            _invalid("instance", f"t must be >= 1, got {t}")
        if t > m:
            _invalid("instance", f"t={t} exceeds m={m}")
        # C-level set operations, since this runs on every complete-S build,
        # and no set of size m, since m may come from an input file
        held = frozenset().union(*self.users)
        stray = held and (min(held) < 0 or max(held) >= m)
        if stray or max(map(len, self.users), default=0) > m - t:
            for i, a in enumerate(self.users, 1):  # name the first bad user
                if any(x < 0 or x >= m for x in a):
                    _invalid(f"user {i}", "side information outside message range")
                if len(a) > m - t:
                    size = f"side information of size {len(a)}"
                    _invalid(f"user {i}", f"{size} leaves fewer than t={t} new messages")

    @property
    def n(self) -> int:
        return len(self.users)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Side-information sets as bitmasks (bit x for message x), built once;
        not a field, so equality and hashing still see only m, t and users."""
        return tuple(sum(1 << x for x in a) for a in self.users)

    @cached_property
    def complete_s_sizes(self) -> tuple[int, ...]:
        """S, sorted, when the instance is complete-S for S = its users' sizes,
        in any user order; () when it is not or has no users.  Distinct subsets
        of range(m) fill their layers exactly when sum C(m, s) = n.  Like
        `masks`, built once and not a field."""
        sizes = tuple(sorted({len(a) for a in self.users}))
        layers = sum(math.comb(self.m, s) for s in sizes)
        return sizes if len(set(self.users)) == self.n == layers else ()


def _invalid(where: str, reason: str) -> NoReturn:
    raise ValueError(f"invalid instance ({where}): {reason}")


def build_complete_s(
    m: int,
    t: int,
    sizes: Iterable[int],
    user_cap: int = DEFAULT_USER_CAP,
) -> Instance:
    """Build the complete-S instance: one user per subset of sizes in S.

    Users are ordered by layer (ascending size), lexicographically inside a
    layer.
    """
    vals = _as_sizes(sizes, m, t)
    n = sum(math.comb(m, s) for s in vals)
    if n > user_cap:
        raise CapExceeded("complete-S user count", n, user_cap)
    users = tuple(
        frozenset(combo)
        for s in vals
        for combo in combinations(range(m), s)
    )
    inst = Instance(m, t, users)
    # fill the cached `masks` in the same order, one C-level sum per user
    bits = [1 << x for x in range(m)]
    inst.__dict__["masks"] = tuple(mask for s in vals for mask in map(sum, combinations(bits, s)))
    return inst


def user_choices(inst: Instance, user: int) -> list[frozenset[int]]:
    """All t-subsets of messages outside one user's side information."""
    missing = sorted(set(range(inst.m)) - inst.users[user])
    return [frozenset(c) for c in combinations(missing, inst.t)]


def validate_assignment(inst: Instance, assignment: Assignment) -> None:
    """Raise ValueError unless the assignment fits the instance."""
    if len(assignment) != inst.n:
        raise ValueError(f"assignment covers {len(assignment)} of {inst.n} users")
    for i, (a, d) in enumerate(zip(inst.users, assignment)):
        if len(d) != inst.t:
            raise ValueError(f"user {i}: desired set size {len(d)} != t={inst.t}")
        if d & a:
            raise ValueError(f"user {i}: desired set intersects side information")
        if any(x < 0 or x >= inst.m for x in d):
            raise ValueError(f"user {i}: desired message outside range")


# ---------- JSON wire format (1-based message indices) ----------


def instance_wire(inst: Instance) -> dict:
    return {
        "m": inst.m,
        "t": inst.t,
        "users": [sorted(x + 1 for x in a) for a in inst.users],
    }


def _json_field(obj: object, key: str, nested: bool = False):
    """obj[key] checked to be an integer, or with `nested` a list of integer
    lists; any other shape raises a ValueError that names the field."""
    if not isinstance(obj, dict):
        raise ValueError("the top-level value must be a JSON object")
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    val = obj[key]
    if nested:
        want = "a list of integer lists"
        ok = isinstance(val, list) and all(
            isinstance(r, list) and all(type(x) is int for x in r) for r in val
        )
    else:
        want, ok = "an integer", type(val) is int
    if not ok:
        raise ValueError(f"field {key!r} must be {want}")
    return val


def instance_from_wire(obj: object) -> Instance:
    users = _json_field(obj, "users", nested=True)
    for i, a in enumerate(users):
        if len(set(a)) != len(a):
            raise ValueError(f"field 'users': user {i + 1} lists a message twice")
    return Instance(
        _json_field(obj, "m"),
        _json_field(obj, "t"),
        tuple(frozenset(x - 1 for x in a) for a in users),
    )


def assignment_to_lists(assignment: Assignment) -> list[list[int]]:
    return [sorted(x + 1 for x in d) for d in assignment]
