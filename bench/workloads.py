"""The four benchmark workloads: inputs from a seed, timed calls, output checks.

Every operation calls picod's public API through its module (``V.is_valid``,
not a name imported at load time), so the tracer's rebinding reaches it.
Expected outputs come from ``expected.json`` (pinned values) or from small
brute-force checks written here, never from picod itself, so a fast wrong
answer counts as a failed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path
from typing import Any, Callable

import picod.cli as C
import picod.coding as G
import picod.hypergraph as H
import picod.instance as I
import picod.oracles as O
import picod.verifier as V

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


@dataclass
class Op:
    """One timed call and the check of its result.

    ``call`` is timed; ``check`` runs after the clock stops and returns
    True when the result matches ``expected``.  ``pinned`` names the
    expected value the checker self-test corrupts.
    """

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[["Op", Any], bool]
    expected: dict = field(default_factory=dict)
    pinned: str | None = None
    memo: dict = field(default_factory=dict)  # check results keyed by output


# ---------- independent checks ----------


def _mask(items) -> int:
    return sum(1 << x for x in items)


def span_supports(q: int, rows) -> set[int]:
    """Support bitmask of every nonzero vector in the GF(q) row space."""
    m = len(rows[0]) if rows else 0
    out = set()
    for coeffs in product(range(q), repeat=len(rows)):
        vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) % q for j in range(m)]
        sup = _mask(j for j in range(m) if vec[j])
        if sup:
            out.add(sup)
    return out


def decoded_by(supports: set[int], known: int) -> int:
    """Messages a user holding `known` recovers, iterated to a fixpoint.

    A message d is recoverable once some codeword is nonzero on d and on no
    other message the user lacks.
    """
    have = known
    while True:
        fresh = 0
        for sup in supports:
            rest = sup & ~have
            if rest and rest & (rest - 1) == 0:
                fresh |= rest
        if not fresh:
            return have & ~known
        have |= fresh


def complete_users(m: int, sizes) -> list[tuple[int, ...]]:
    """Side-information sets of the complete-S instance, in any order."""
    return [c for s in sizes for c in combinations(range(m), s)]


def code_serves(q: int, rows, users, t: int) -> bool:
    supports = span_supports(q, rows)
    return all(bin(decoded_by(supports, _mask(a))).count("1") >= t for a in users)


def is_exact_cover(users, labels) -> bool:
    """Every user misses exactly one of the chosen messages."""
    chosen = _mask(labels)
    return len(set(labels)) == len(labels) and all(
        bin(chosen & ~_mask(a)).count("1") == 1 for a in users)


def one_row_code_exists(users, m: int) -> bool:
    """Brute force over every GF(2) row: does one transmission serve all?"""
    masks = [_mask(a) for a in users]
    return any(all(bin(row & ~a).count("1") == 1 for a in masks)
               for row in range(1, 1 << m))


def decoded_digest(per_user) -> str:
    """Hash of every user's decoded set, in user order (0-based messages)."""
    text = json.dumps([sorted(u.decoded) for u in per_user], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------- report: the converse search behind `picod report` ----------


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = C.main(argv)
    return rc, buf.getvalue()


def _check_report(op: Op, out) -> bool:
    rc, text = out
    e = op.expected
    obj = json.loads(text)
    if rc != 0 or obj["m"] != e["m"] or obj["t"] != e["t"] or obj["S"] != e["S"]:
        return False
    if obj["lower_bound_method"] != "mais-exact" or obj["achieved"] != e["optimum"]:
        return False
    if not e["lower_bound_floor"] <= obj["lower_bound"] <= obj["achieved"]:
        return False
    code = obj["witness_code"]
    if len(code["rows"]) != obj["achieved"] or "chain" not in obj:
        return False
    key = (code["q"], json.dumps(code["rows"]))
    if key not in op.memo:
        users = complete_users(e["m"], e["S"])
        op.memo[key] = code_serves(code["q"], code["rows"], users, e["t"])
    return op.memo[key]


def report_ops(seed: int) -> list[Op]:
    ops = []
    for case in EXPECTED["report"]:
        argv = ["report", "-m", str(case["m"]), "-t", str(case["t"]),
                "-S", ",".join(map(str, case["S"])), "--heuristic"]
        ops.append(Op("report", f"m={case['m']} t={case['t']} S={case['S']}",
                      lambda argv=argv: _run_cli(argv), _check_report,
                      dict(case), "optimum"))
    return ops


# ---------- verify-wide: one code, thousands of users ----------


def _verify_call(m, t, S, drop):
    inst = I.build_complete_s(m, t, S)
    code = G.build_partition_scheme(G.optimal_partition(m, t, S))
    if drop is not None:
        code = G.LinearCode(code.q, code.m, code.rows[:drop] + code.rows[drop + 1:])
    return code, V.is_valid(code, inst)


def _check_verify(op: Op, out) -> bool:
    code, report = out
    e = op.expected
    return (code.q == e["q"] and code.ell == e["ell"] and report.valid == e["valid"]
            and len(report.per_user) == e["n"]
            and decoded_digest(report.per_user) == e["digest"])


def verify_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for case in EXPECTED["verify"]:
        m, t, S = case["m"], case["t"], tuple(case["S"])
        label = f"m={m} t={t} S={list(S)} q={case['q']}"
        ops.append(Op("verify-valid", label, lambda m=m, t=t, S=S: _verify_call(m, t, S, None),
                      _check_verify,
                      {"q": case["q"], "ell": case["ell"], "n": case["n"], "valid": True,
                       "digest": case["digest"]}, "digest"))
        drop = rng.randrange(case["ell"])
        ops.append(Op("verify-broken", f"{label} drop={drop}",
                      lambda m=m, t=t, S=S, d=drop: _verify_call(m, t, S, d),
                      _check_verify,
                      {"q": case["q"], "ell": case["ell"] - 1, "n": case["n"], "valid": False,
                       "digest": case["broken_digests"][drop]}, "digest"))
    return ops


# ---------- search-narrow: many codes, few users ----------

SEARCH_BATCHES = 65  # batches of one-factor and of circular-arc instances


def _random_instance(rng, m, n_max=10):
    users = tuple(frozenset(rng.sample(range(m), rng.randint(0, m - 1)))
                  for _ in range(rng.randint(1, n_max)))
    return I.Instance(m, 1, users)


def _random_arc_instance(rng, n_max=30, m_max=12):
    """t = 1 instance whose topology is circular-arc in the identity order."""
    while True:
        n, m = rng.randint(3, n_max), rng.randint(2, m_max)
        arcs = []
        for _ in range(m):
            start, length = rng.randrange(n), rng.randint(1, n - 1)
            arcs.append({(start + k) % n for k in range(length)})
        if set().union(*arcs) == set(range(n)):
            users = tuple(frozenset(j for j in range(m) if i not in arcs[j]) for i in range(n))
            return I.Instance(m, 1, users)


def _exhaustive_call(m, t, S, q):
    return V.min_linear_length_exhaustive(I.build_complete_s(m, t, S), q)


def _check_exhaustive(op: Op, out) -> bool:
    e = op.expected
    if out is None:
        return False
    ell, code = out
    if ell != e["length"] or code.ell != ell or code.q != e["q"]:
        return False
    key = code.rows
    if key not in op.memo:
        op.memo[key] = code_serves(code.q, code.rows, complete_users(e["m"], e["S"]), e["t"])
    return op.memo[key]


def _one_factor_call(batch):
    return [(H.has_one_factor(H.network_topology(inst)),
             V.min_linear_length_exhaustive(inst, 2, ell_max=1)) for inst in batch]


def _check_one_factor(op: Op, out) -> bool:
    """Exact cover exists iff a one-row code exists, as brute force says."""
    for inst, exists, (factor, one) in zip(op.expected["batch"], op.expected["exists"], out):
        if (factor is not None) != exists or (one is not None) != exists:
            return False
        if factor is not None and not (
                is_exact_cover(inst.users, factor) and one[0] == 1
                and code_serves(2, one[1].rows, inst.users, 1)):
            return False
    return len(out) == len(op.expected["batch"])


def _arc_call(batch):
    return [H.circular_arc_scheme_with_trace(inst, tuple(range(inst.n))) for inst in batch]


def _check_arc(op: Op, out) -> bool:
    """At most two rows that serve everyone; one row exactly when a factor exists."""
    for inst, (code, trace) in zip(op.expected["batch"], out):
        if code.ell > 2 or code.q != 2 or not code_serves(2, code.rows, inst.users, 1):
            return False
        if trace.factor is not None and not (
                code.ell == 1 and is_exact_cover(inst.users, trace.factor)):
            return False
    return len(out) == len(op.expected["batch"])


def search_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for case in EXPECTED["search"]:
        m, t, S, q = case["m"], case["t"], tuple(case["S"]), case["q"]
        ops.append(Op("exhaustive", f"m={m} t={t} S={list(S)} q={q}",
                      lambda m=m, t=t, S=S, q=q: _exhaustive_call(m, t, S, q),
                      _check_exhaustive, dict(case), "length"))
    # batches of seeded random instances with a fixed size mix, so that the
    # seed changes the instances but not the typical op's cost
    for k in range(SEARCH_BATCHES):
        batch = [_random_instance(rng, m) for m in range(2, 7)]
        exists = [one_row_code_exists(inst.users, inst.m) for inst in batch]
        ops.append(Op("one-factor", f"random batch #{k}", lambda b=batch: _one_factor_call(b),
                      _check_one_factor, {"batch": batch, "exists": exists}))
    for k in range(SEARCH_BATCHES):
        batch = [_random_arc_instance(rng) for _ in range(5)]
        ops.append(Op("circular-arc", f"arc batch #{k}", lambda b=batch: _arc_call(b),
                      _check_arc, {"batch": batch}))
    return ops



# ---------- oracle: the combinatorial lemmas behind the converse ----------

ORACLE_AVERAGING_CHUNKS = 20
ORACLE_AVERAGING_TRIALS = 500
ORACLE_WITNESS_BATCHES = 50


def _check_sweep(op: Op, out) -> bool:
    e = op.expected
    return (out.ground_size == e["s"] and out.families == e["families"]
            and out.distinct_keys == e["distinct_keys"] and out.failures == 0)


def _check_averaging(op: Op, out) -> bool:
    e = op.expected
    return out.trials == e["trials"] and out.seed == e["seed"] and out.failures == 0


def _check_witness(op: Op, out) -> bool:
    """Each witness is a nonempty index set meeting in exactly |P| - 1 elements."""
    for blocks, picked in zip(op.expected["families"], out):
        picked = list(picked)
        if not picked or len(set(picked)) != len(picked):
            return False
        if any(p < 0 or p >= len(blocks) for p in picked):
            return False
        inter = set(blocks[picked[0]])
        for p in picked[1:]:
            inter &= blocks[p]
        if len(inter) != len(picked) - 1:
            return False
    return len(out) == len(op.expected["families"])


def _check_cover(op: Op, out) -> bool:
    e = op.expected
    return (out.impossible and out.valid_found == 0
            and out.collections_checked == e["collections"])


def oracle_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for s in range(1, 5):
        nonempty = (1 << s) - 1
        expected = {"s": s, "families": nonempty ** (s + 1),
                    # multisets of s + 1 nonempty subsets
                    "distinct_keys": math.comb(nonempty + s, s + 1)}
        ops.append(Op("sweep", f"s={s}", lambda s=s: O.sweep_intersection_families(s),
                      _check_sweep, expected, "families"))
    for k in range(ORACLE_AVERAGING_CHUNKS):
        sub = rng.randrange(1 << 30)
        ops.append(Op("averaging", f"chunk #{k} seed={sub}",
                      lambda sub=sub: O.random_averaging_suite(ORACLE_AVERAGING_TRIALS, sub),
                      _check_averaging, {"trials": ORACLE_AVERAGING_TRIALS, "seed": sub}))
    for k in range(ORACLE_WITNESS_BATCHES):
        fams = [(s, [frozenset(v for v in range(s) if rng.random() < 0.7)
                     for _ in range(s + 1)])
                for s in 2 * tuple(range(1, 8))]
        ops.append(Op("witness", f"family batch #{k}",
                      lambda f=fams: [O.intersection_family_witness(b, s) for s, b in f],
                      _check_witness, {"families": [b for _, b in fams]}))
    for m, s, t, b in EXPECTED["block_covers"]:
        candidates = sum(math.comb(m, k) for k in range(s + 1, b + 1))
        ops.append(Op("block-cover", f"m={m} s={s} t={t} b={b}",
                      lambda p=(m, s, t, b): O.block_cover_impossibility(*p),
                      _check_cover, {"collections": 1 << candidates}))
    return ops



@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], list[Op]]
    tail_percentile: int  # highest percentile with >= 10 ops beyond it in a run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report", report_ops, 95),
        Workload("verify-wide", verify_ops, 95),
        Workload("search-narrow", search_ops, 99),
        Workload("oracle", oracle_ops, 95),
    )
}
