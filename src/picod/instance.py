"""Problem instances for pliable index coding with t demands, PICOD(t).

An instance has m messages and n users.  User i holds the messages in its
side-information set A_i and is happy once it can decode any t messages it
does not hold.  Message indices are 0-based internally and 1-based in the
JSON wire format; the conversion happens only in the (de)serialization
helpers at the bottom of this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Iterator

from .errors import CapExceeded

DEFAULT_USER_CAP = 10**6
DEFAULT_ASSIGNMENT_CAP = 10**7

# One decoding choice per user: a frozenset of t desired message indices,
# disjoint from that user's side information.
Assignment = tuple[frozenset[int], ...]


@dataclass(frozen=True)
class SizeProfile:
    """The set S of side-information sizes of a complete-S instance."""

    sizes: frozenset[int]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("size profile must be non-empty")
        if any(s < 0 for s in self.sizes):
            raise ValueError("side-information sizes must be non-negative")

    @property
    def smin(self) -> int:
        return min(self.sizes)

    @property
    def smax(self) -> int:
        return max(self.sizes)

    @property
    def is_consecutive(self) -> bool:
        return len(self.sizes) == self.smax - self.smin + 1

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.sizes))

    @classmethod
    def parse(cls, text: str) -> "SizeProfile":
        """Parse "0,2-4,6" style size lists (ranges are inclusive)."""
        sizes: set[int] = set()
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "-" in chunk:
                lo_s, hi_s = chunk.split("-", 1)
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ValueError(f"empty size range {chunk!r}")
                sizes.update(range(lo, hi + 1))
            else:
                sizes.add(int(chunk))
        return cls(frozenset(sizes))


def _as_sizes(profile: SizeProfile | Iterable[int]) -> SizeProfile:
    if isinstance(profile, SizeProfile):
        return profile
    return SizeProfile(frozenset(profile))


@dataclass(frozen=True)
class Instance:
    """m messages, t demands, and one side-information set per user."""

    m: int
    t: int
    users: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.users)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Side-information sets as bitmasks (bit x for message x), built once;
        not a field, so equality and hashing still see only m, t and users."""
        return tuple(sum(1 << x for x in a) for a in self.users)


@dataclass(frozen=True)
class InstanceViolation:
    """First structural problem found in an instance, if any."""

    user: int | None
    reason: str


def validate_instance(inst: Instance) -> InstanceViolation | None:
    """Return None for a well-formed instance, else the first violation.

    The reported user index is 0-based; serialization shifts it.
    """
    if inst.m < 1:
        return InstanceViolation(None, f"m must be >= 1, got {inst.m}")
    if inst.t < 1:
        return InstanceViolation(None, f"t must be >= 1, got {inst.t}")
    if inst.t > inst.m:
        return InstanceViolation(None, f"t={inst.t} exceeds m={inst.m}")
    for i, a in enumerate(inst.users):
        if any(x < 0 or x >= inst.m for x in a):
            return InstanceViolation(i, "side information outside message range")
        if len(a) > inst.m - inst.t:
            return InstanceViolation(
                i, f"side information of size {len(a)} leaves fewer than t={inst.t} new messages"
            )
    return None


def build_complete_s(
    m: int,
    t: int,
    profile: SizeProfile | Iterable[int],
    user_cap: int = DEFAULT_USER_CAP,
) -> Instance:
    """Build the complete-S instance: one user per subset of sizes in S.

    Users are ordered by layer (ascending size), lexicographically inside a
    layer.
    """
    prof = _as_sizes(profile)
    if m < 1 or t < 1 or t > m:
        raise ValueError(f"need 1 <= t <= m, got m={m}, t={t}")
    if prof.smax > m - t:
        raise ValueError(f"sizes {prof.sorted()} exceed m - t = {m - t}")
    n = sum(math.comb(m, s) for s in prof.sizes)
    if n > user_cap:
        raise CapExceeded("complete-S user count", n, user_cap)
    users = tuple(
        frozenset(combo)
        for s in prof.sorted()
        for combo in combinations(range(m), s)
    )
    return Instance(m, t, users)


def is_complete_s(inst: Instance) -> bool:
    """Is inst complete-S for S = its users' sizes, in any user order?  Distinct
    subsets of range(m) fill their layers exactly when sum C(m, s) = n."""
    layers = sum(math.comb(inst.m, s) for s in {len(a) for a in inst.users})
    in_range = all(0 <= x < inst.m for a in inst.users for x in a)
    return in_range and len(set(inst.users)) == inst.n == layers


def assignment_count(inst: Instance) -> int:
    """Number of full desired-set assignments of the instance."""
    total = 1
    for a in inst.users:
        total *= math.comb(inst.m - len(a), inst.t)
    return total


def user_choices(inst: Instance, user: int) -> list[frozenset[int]]:
    """All t-subsets of messages outside one user's side information."""
    missing = sorted(set(range(inst.m)) - inst.users[user])
    return [frozenset(c) for c in combinations(missing, inst.t)]


def enumerate_assignments(
    inst: Instance, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> Iterator[Assignment]:
    """Yield every assignment in lexicographic order, refusing huge spaces."""
    count = assignment_count(inst)
    if count > cap:
        raise CapExceeded("assignment enumeration", count, cap)
    per_user = [user_choices(inst, i) for i in range(inst.n)]
    for combo in product(*per_user):
        yield tuple(combo)


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


def instance_to_json(inst: Instance, pretty: bool = False) -> str:
    obj = {
        "m": inst.m,
        "t": inst.t,
        "users": [sorted(x + 1 for x in a) for a in inst.users],
    }
    return json.dumps(obj, indent=2 if pretty else None)


def _json_field(obj: object, key: str, nested: bool = False):
    """obj[key] checked to be an integer, or with `nested` a list of integer
    lists; any other shape raises a ValueError that names the field."""
    if not isinstance(obj, dict) or key not in obj:
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


def instance_from_json(text: str) -> Instance:
    obj = json.loads(text)
    users = _json_field(obj, "users", nested=True)
    for i, a in enumerate(users):
        if len(set(a)) != len(a):
            raise ValueError(f"field 'users': user {i + 1} lists a message twice")
    inst = Instance(
        _json_field(obj, "m"),
        _json_field(obj, "t"),
        tuple(frozenset(x - 1 for x in a) for a in users),
    )
    bad = validate_instance(inst)
    if bad is not None:
        where = "instance" if bad.user is None else f"user {bad.user + 1}"
        raise ValueError(f"invalid instance ({where}): {bad.reason}")
    return inst


def assignment_to_lists(assignment: Assignment) -> list[list[int]]:
    return [sorted(x + 1 for x in d) for d in assignment]
