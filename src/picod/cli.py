"""Command line front end.

Subcommands build complete size-profile instances, run the bound and
scheme pipeline, verify codes, expose the topology hypergraph machinery,
and drive the combinatorial oracle suites.  All output is JSON on stdout;
exit code 0 means the command completed and any checked property holds,
1 means the property failed, 2 means the command could not run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .bounds import DEFAULT_MAIS_NODE_CAP, best_chain_bound, full_report
from .coding import LinearCode, is_prime
from .errors import CapExceeded, PicodError
from .hypergraph import (
    DEFAULT_NODE_CAP,
    circular_arc_scheme_with_trace,
    has_one_factor,
    network_topology,
    one_transmission_code,
)
from .instance import (
    DEFAULT_USER_CAP,
    Instance,
    build_complete_s,
    instance_from_wire,
    instance_wire,
)
from .oracles import (
    DEFAULT_COLLECTION_CAP,
    block_cover_impossibility,
    random_averaging_suite,
    sweep_intersection_families,
)
from .verifier import is_valid


def _prime_arg(text: str) -> int:
    q = int(text)
    if not is_prime(q):
        raise argparse.ArgumentTypeError(f"field size {q} is not prime")
    return q


def _positive_arg(text: str) -> int:
    v = int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return v


def _sizes_arg(text: str) -> set[int]:
    """S from a comma list of sizes and inclusive ranges, e.g. "0,2-4,6"."""
    sizes: set[int] = set()
    for chunk in filter(None, map(str.strip, text.split(","))):
        lo, sep, hi = chunk.partition("-")
        try:
            span = range(int(lo), int(hi if sep else lo) + 1)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad size {chunk!r}") from None
        if not span:
            raise argparse.ArgumentTypeError(f"empty size range {chunk!r}")
        sizes.update(span)
    if not sizes:
        raise argparse.ArgumentTypeError(f"no sizes in {text!r}")
    return sizes


def _order_arg(text: str) -> tuple[int, ...]:
    """A cyclic user order from a comma list of 1-based users, e.g. "2,1,3"."""
    order = []
    for chunk in text.split(","):
        try:
            order.append(int(chunk) - 1)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad user {chunk.strip()!r}") from None
    return tuple(order)


def _emit(args: argparse.Namespace, obj: object) -> None:
    text = json.dumps(obj, indent=2 if args.pretty else None)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _load_instance(args: argparse.Namespace) -> Instance:
    params = (args.m, args.t, args.sizes)
    if args.instance:
        if any(p is not None for p in params):
            raise ValueError("give --instance or -m, -t and -S, not both")
        inst = instance_from_wire(json.loads(Path(args.instance).read_text()))
        if inst.n > args.cap_users:
            raise CapExceeded("instance user count", inst.n, args.cap_users)
        return inst
    if any(p is None for p in params):
        raise ValueError("provide --instance or all of -m, -t and -S")
    return build_complete_s(args.m, args.t, args.sizes, user_cap=args.cap_users)


def cmd_gen(args: argparse.Namespace) -> int:
    _emit(args, instance_wire(_load_instance(args)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    report = full_report(inst, q=args.field, node_cap=args.cap_nodes)
    obj = report.wire()
    if args.chain:
        chain = best_chain_bound(inst, report.witness_assignment)
        obj["chain"] = {"value": chain.value, "ordering": [u + 1 for u in chain.ordering]}
    _emit(args, obj)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    code = LinearCode.from_wire(json.loads(Path(args.code).read_text()), m=inst.m)
    report = is_valid(code, inst)
    _emit(args, report.wire())
    return 0 if report.valid else 1


def cmd_topology(args: argparse.Namespace) -> int:
    topo = network_topology(_load_instance(args))
    _emit(args, topo.wire())
    return 0


def cmd_one_factor(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    topo = network_topology(inst)
    factor = has_one_factor(topo, node_cap=args.cap_nodes)
    obj: dict = {"factor": None, "code": None}
    if factor is not None:
        obj["factor"] = [j + 1 for j in factor]
        obj["code"] = one_transmission_code(topo, factor).wire()
    _emit(args, obj)
    return 0 if factor is not None else 1


def cmd_circular_arc(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    order = args.order if args.order is not None else tuple(range(inst.n))
    code, trace = circular_arc_scheme_with_trace(
        inst, order, q=args.field or 2, node_cap=args.cap_nodes
    )
    obj = {"rows": code.ell, "code": code.wire()}
    if args.trace:
        obj["trace"] = trace.wire()
    _emit(args, obj)
    return 0


def cmd_lemma3_sweep(args: argparse.Namespace) -> int:
    summary = sweep_intersection_families(args.ground_size)
    _emit(args, asdict(summary) | {"ok": summary.ok})
    return 0 if summary.ok else 1


def cmd_lemma4_random(args: argparse.Namespace) -> int:
    summary = random_averaging_suite(args.trials, args.seed)
    _emit(args, asdict(summary) | {"ok": summary.ok})
    return 0 if summary.ok else 1


def cmd_block_cover(args: argparse.Namespace) -> int:
    summary = block_cover_impossibility(
        args.m, args.s, args.t, args.max_block_size,
        collection_cap=args.cap_collections,
    )
    _emit(args, asdict(summary) | {"impossible": summary.impossible})
    return 0 if summary.impossible else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--pretty", action="store_true", help="indent JSON output")
    output.add_argument("-o", "--out", help="write output to a file instead of stdout")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("-m", type=_positive_arg, help="number of messages")
    source.add_argument("-t", type=_positive_arg, help="messages each user must decode")
    source.add_argument(
        "-S", dest="sizes", type=_sizes_arg,
        help="side-information sizes, e.g. '1' or '0,2-4'",
    )
    source.add_argument("--instance", help="path to an instance JSON file")
    source.add_argument(
        "--cap-users", type=_positive_arg, default=DEFAULT_USER_CAP,
        help="refuse to build or load instances with more users than this",
    )

    parser = argparse.ArgumentParser(
        prog="picod",
        description="Pliable index coding: instances, codes, bounds, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[output, source], help="emit a complete-S instance")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "report", parents=[output, source],
        help="bounds, closed form and witness scheme for a complete-S instance",
    )
    p.add_argument("--field", type=_prime_arg, help="prime field size override")
    p.add_argument(
        "--cap-nodes", type=_positive_arg, default=DEFAULT_MAIS_NODE_CAP,
        help="node budget of the lower-bound search; past it the bound is mais-partial",
    )
    # --heuristic is the older spelling, kept so existing scripts still run
    p.add_argument(
        "--exact", "--heuristic", dest="chain", action="store_true",
        help="attach the best decoding chain of the witness assignment: its acyclic bound,"
        " searched under the default node budget",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", parents=[output, source], help="check a code against an instance")
    p.add_argument("--code", required=True, help="path to a code JSON file")
    p.set_defaults(func=cmd_verify)

    hyper = sub.add_parser("hypergraph", help="network topology hypergraph tools")
    hsub = hyper.add_subparsers(dest="subcommand", required=True)

    p = hsub.add_parser("topology", parents=[output, source], help="emit the topology hypergraph")
    p.set_defaults(func=cmd_topology)

    p = hsub.add_parser(
        "one-factor", parents=[output, source],
        help="search for an exact edge cover; exit 0 iff one exists",
    )
    p.add_argument(
        "--cap-nodes", type=_positive_arg, default=DEFAULT_NODE_CAP,
        help="search node budget",
    )
    p.set_defaults(func=cmd_one_factor)

    p = hsub.add_parser(
        "circular-arc", parents=[output, source],
        help="build the two-transmission scheme for a circular-arc topology",
    )
    p.add_argument(
        "--order", type=_order_arg,
        help="cyclic user order as a comma list, default 1,2,...,n",
    )
    p.add_argument("--field", type=_prime_arg, help="prime field size, default 2")
    p.add_argument(
        "--cap-nodes", type=_positive_arg, default=DEFAULT_NODE_CAP,
        help="node budget of the one-factor precheck; exceeding it is an error (exit 2)",
    )
    p.add_argument("--trace", action="store_true", help="include the construction trace")
    p.set_defaults(func=cmd_circular_arc)

    oracle = sub.add_parser("oracle", help="combinatorial oracle suites")
    osub = oracle.add_subparsers(dest="subcommand", required=True)

    p = osub.add_parser(
        "lemma3-sweep", parents=[output],
        help="exhaustive intersection-family witness sweep",
    )
    p.add_argument("-s", "--ground-size", type=_positive_arg, required=True)
    p.set_defaults(func=cmd_lemma3_sweep)

    p = osub.add_parser(
        "lemma4-random", parents=[output],
        help="random averaging-pair suite (exact integer arithmetic)",
    )
    p.add_argument("--trials", type=_positive_arg, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_lemma4_random)

    p = osub.add_parser(
        "block-cover", parents=[output],
        help="exhaustive bounded-size block cover search; exit 0 iff impossible",
    )
    p.add_argument("-m", type=_positive_arg, required=True)
    p.add_argument("-s", type=_positive_arg, required=True)
    p.add_argument("-t", type=_positive_arg, required=True)
    p.add_argument("--max-block-size", type=_positive_arg, required=True)
    p.add_argument(
        "--cap-collections", type=_positive_arg, default=DEFAULT_COLLECTION_CAP,
        help="largest collection space to enumerate",
    )
    p.set_defaults(func=cmd_block_cover)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the parser is built on the first call, once per process."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PicodError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
