"""picod benchmark: one workload per process, checked outputs, optional trace.

Run from the repository root:

    python3 bench/run.py --workload report --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check

The timed section repeats passes over the workload's operations, in a new
seeded order each pass, while the next pass still fits in --seconds.  Every
operation's output is checked after its clock stops.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"};
metric names and units come from BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1).  Every sample goes to bench/results/.  The exit
code is 0 only if every check passed.

Times are scaled to a reference machine speed.  The host this benchmark was
written on switches between speed states up to 1.8x apart that last for
tens of seconds, so raw wall times of identical runs spread by more than
20%.  A fixed pure-Python probe loop is timed right before and after every
op; each latency is multiplied by REFERENCE_PROBE_S / (mean of the two
probes), which cancels the host's state.  Raw latencies are kept in the
results file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 7
REFERENCE_PROBE_S = 1e-3


def _import_picod():
    """Import picod from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "picod" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'picod'} not found; run from the repository root")
    sys.path.insert(0, str(src))
    import picod

    if Path(picod.__file__).resolve().parent != (src / "picod").resolve():
        sys.exit(f"error: imported picod from {picod.__file__}, not from {src}")


def _machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_revision": _git_revision(),
    }


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe() -> float:
    """Seconds taken by a fixed loop of dict, tuple and small-int work."""
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i & 63, i >> 6)
        counts[key] = counts.get(key, 0) + bin(i ^ (i >> 3)).count("1")
    sum(sorted(v for v in counts.values() if v & 1))
    return time.perf_counter() - start


@dataclass(frozen=True)
class Sample:
    op: int        # index into the workload's ops
    raw_s: float   # wall time of the call
    scale: float   # REFERENCE_PROBE_S / probe time around the call
    ok: bool       # the call returned and its output passed the check
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.raw_s * self.scale


def run_pass(ops, order, tracer=None) -> list[Sample]:
    """One pass over ops in the given order; checks run after each op's clock."""
    samples = []
    before = probe()
    for idx in order:
        op = ops[idx]
        if tracer is not None:
            tracer.op += 1
            span = tracer.begin("op." + op.kind)
        error = None
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
        after = probe()
        ok = False
        if error is None:
            try:
                ok = bool(op.check(op, out))
            except Exception as exc:  # a malformed result fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        samples.append(Sample(idx, elapsed, 2 * REFERENCE_PROBE_S / (before + after), ok, error))
        before = after
    return samples


def _schedule(seconds: float, enough):
    """Yield once per pass while the next pass should end within `seconds`,
    judged by the last pass's length, and always until enough() holds."""
    start = time.perf_counter()
    last = 0.0
    while not enough() or time.perf_counter() + last <= start + seconds:
        began = time.perf_counter()
        yield
        last = time.perf_counter() - began


def measure_setup(workload: str, seed: int) -> list[Sample]:
    """Fresh processes that start Python, import picod and build the inputs."""
    samples = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = probe()
        samples.append(Sample(-1, elapsed, 2 * REFERENCE_PROBE_S / (before + after), True))
        before = after
    return samples


def typical_pass(samples) -> float:
    """Seconds of one pass in which every op takes its median latency.

    Per-op medians keep a transient slowdown during one op from moving the
    whole pass.
    """
    per_op: dict[int, list[float]] = {}
    for s in samples:
        per_op.setdefault(s.op, []).append(s.seconds)
    return sum(statistics.median(v) for v in per_op.values())


def run_untraced(work, ops, seed, seconds) -> tuple[dict, list[Sample]]:
    rng = random.Random(seed)
    samples: list[Sample] = []
    for _ in _schedule(seconds, lambda: _tail_defined(len(samples), work.tail_percentile)):
        order = list(range(len(ops)))
        rng.shuffle(order)
        samples.extend(run_pass(ops, order))
    lat_ms = [s.seconds * 1000 for s in samples]
    metrics = {
        "wall_s": typical_pass(samples),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": statistics.quantiles(lat_ms, n=100, method="inclusive")[
            work.tail_percentile - 1],
        "ok_frac": sum(s.ok for s in samples) / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, samples


def _tail_defined(count: int, p: int) -> bool:
    return count * (100 - p) / 100 >= 10


def run_traced(work, ops, seed, seconds, spans_path) -> tuple[dict, list[Sample], dict]:
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    from layers import layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    rng = random.Random(seed)
    plain, traced, samples = [], [], []
    for _ in _schedule(seconds, lambda: bool(traced)):
        order = list(range(len(ops)))
        rng.shuffle(order)
        if len(plain) <= len(traced):
            got = run_pass(ops, order)
            plain.append(got)
        else:
            first_op, lo = tracer.op + 1, len(tracer.span_start)
            tracer.install()
            try:
                got = run_pass(ops, order, tracer)
            finally:
                tracer.uninstall()
            traced.append((got, first_op, lo, len(tracer.span_start)))
        samples.extend(got)
    per_pass = [layer_metrics(tracer, lo, hi, {first + k: s.scale for k, s in enumerate(got)})
                for got, first, lo, hi in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(typical_pass(t[0]) for t in traced)
                                   - statistics.median(typical_pass(p) for p in plain))
    tracer.write(spans_path)
    extra = {"per_traced_pass": per_pass, "absent": tracer.absent,
             "uncounted": sorted(tracer.uncounted),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, samples, extra


def self_check() -> int:
    """Corrupt one pinned expected value per workload; its failures must show."""
    from workloads import WORKLOADS

    bad = 0
    for name, work in WORKLOADS.items():
        ops = work.make(0)
        target = next(op for op in ops if op.pinned)
        value = target.expected[target.pinned]
        target.expected[target.pinned] = (value + 1 if isinstance(value, int)
                                          else "corrupted-" + str(value))
        samples = run_pass(ops, range(len(ops)))
        failed = sum(not s.ok for s in samples)
        bad += failed == 0
        print(f"self-check {name}: corrupted {target.pinned} of '{target.label}', "
              f"failed_frac = {failed / len(samples):.4f} "
              f"({'caught' if failed else 'NOT CAUGHT'})")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import picod, build the inputs and exit (timed as setup_s)")
    parser.add_argument("--self-check", action="store_true",
                        help="check that a corrupted expected value is caught")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_picod()
    sys.path.insert(0, str(BENCH))
    if args.self_check:
        return self_check()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    work = WORKLOADS[args.workload]
    ops = work.make(args.seed)
    if args.setup_only:
        return 0

    RESULTS.mkdir(exist_ok=True)
    stem = f"{work.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": work.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(),
              "tail_percentile": work.tail_percentile,
              "reference_probe_s": REFERENCE_PROBE_S}
    if args.trace:
        metrics, samples, extra = run_traced(work, ops, args.seed, args.seconds,
                                             RESULTS / f"{stem}.spans.gz")
        record.update(extra)
        wanted = spec["per_layer"]
        for name in extra["absent"]:
            print(f"trace: picod has no public {name}; its metrics read 0")
        for name in extra["uncounted"]:
            print(f"trace: could not read the work counts of {name}; they read 0")
    else:
        setup = measure_setup(work.name, args.seed)
        metrics, samples = run_untraced(work, ops, args.seed, args.seconds)
        metrics["setup_s"] = statistics.median(s.seconds for s in setup)
        record["setup"] = [[round(s.raw_s, 9), round(s.scale, 6)] for s in setup]
        wanted = spec["end_to_end"]
    failed = [s for s in samples if not s.ok]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(
        metrics=out, attempted=len(samples), failed=len(failed),
        # kind, label, raw seconds, scale, ok, error
        ops=[[ops[s.op].kind, ops[s.op].label, round(s.raw_s, 9), round(s.scale, 6),
              s.ok, s.error] for s in samples])
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in out.items():
        print(f"{work.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{work.name} failed_frac = {len(failed) / len(samples):.6g} "
          f"({len(failed)} of {len(samples)} ops failed their check)")
    if failed:
        s = failed[0]
        print(f"first failure: {ops[s.op].kind} {ops[s.op].label}: {s.error or 'wrong output'}")
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": out}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
