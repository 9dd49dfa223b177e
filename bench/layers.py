"""Per-layer metrics of one traced pass, computed from its spans.

Names follow ``<module>.<function>.calls`` / ``.self_s`` for the traced
public functions, plus work counts read at the same span boundaries.  A
layer that does no work on a workload reads 0.  BENCHMARK.json lists which
of these the benchmark reports.
"""

from __future__ import annotations

from collections import Counter

from tracer import TARGETS


def layer_metrics(tracer, lo: int, hi: int, scale: dict[int, float]) -> dict[str, float]:
    """Calls, self seconds and work counts of the spans with index in [lo, hi).

    `scale` maps an op id to the factor that brings its times to the
    reference machine speed (see run.py); self times are scaled by it.
    """
    names = tracer.names
    kinds = tracer.span_name[lo:hi]
    dur = [(e - s) * scale[op] for s, e, op in zip(
        tracer.span_start[lo:hi], tracer.span_end[lo:hi], tracer.span_op[lo:hi])]
    child = [0.0] * len(dur)
    for k, parent in enumerate(tracer.span_parent[lo:hi]):
        if parent >= lo:
            child[parent - lo] += dur[k]

    calls = dict.fromkeys((f"{m}.{f}" for m, f in TARGETS), 0)
    self_s = dict.fromkeys(calls, 0.0)
    for k, nid in enumerate(kinds):
        name = names[nid]
        if name in calls:
            calls[name] += 1
            self_s[name] += dur[k] - child[k]

    counts: Counter[str] = Counter()
    for idx, key, value in tracer.counts:
        if lo <= idx < hi:
            counts[key] += value

    closures_in_search = sum(
        1 for k, nid in enumerate(kinds)
        if names[nid] == "verifier.decodable_closure"
        and tracer.has_ancestor(lo + k, "verifier.min_linear_length_exhaustive"))

    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["instance.users_built"] = counts["instance.users_built"]
    out["verifier.users_checked"] = counts["verifier.users_checked"]
    out["oracles.families_checked"] = counts["oracles.families_checked"]
    out["oracles.collections_checked"] = counts["oracles.collections_checked"]
    out["verifier.closures_per_search"] = _ratio(
        closures_in_search, calls["verifier.min_linear_length_exhaustive"])
    out["hypergraph.factor_found_frac"] = _ratio(
        counts["hypergraph.factors_found"], calls["hypergraph.has_one_factor"])
    families = counts["oracles.families_checked"]
    out["oracles.witness_cache_hit_frac"] = (
        1.0 - counts["oracles.distinct_keys"] / families if families else 0.0)
    return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
