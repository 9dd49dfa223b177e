"""Command line front end.

Subcommands build complete size-profile instances, run the bound and
scheme pipeline, verify codes, expose the topology hypergraph machinery,
and drive the combinatorial oracle suites.  All output is JSON on stdout;
exit code 0 means the command completed and any checked property holds,
1 means the property failed, 2 means the command could not run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from .bounds import DEFAULT_MAIS_NODE_CAP, best_chain_bound, full_report
from .coding import LinearCode, is_prime
from .errors import PicodError
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
    SizeProfile,
    build_complete_s,
    instance_from_json,
    instance_to_json,
    is_complete_s,
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


def _order_arg(text: str) -> tuple[int, ...]:
    return tuple(int(x) - 1 for x in text.split(","))


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _load_instance(args: argparse.Namespace) -> Instance:
    if getattr(args, "instance", None):
        return instance_from_json(Path(args.instance).read_text())
    if args.m is None or args.t is None or args.sizes is None:
        raise ValueError("provide --instance or all of -m, -t and -S")
    return build_complete_s(args.m, args.t, args.sizes, user_cap=args.cap_users)


def _infer_profile(inst: Instance) -> tuple[SizeProfile, Instance]:
    """The size profile S such that inst is the complete-S instance, if any,
    with that instance as build_complete_s orders its users."""
    if not inst.users or not is_complete_s(inst):
        raise ValueError("instance is not complete for any size profile")
    sizes = frozenset(len(a) for a in inst.users)
    return SizeProfile(sizes), build_complete_s(inst.m, inst.t, sizes, user_cap=inst.n)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.m is None or args.t is None or args.sizes is None:
        raise ValueError("provide all of -m, -t and -S")
    inst = build_complete_s(args.m, args.t, args.sizes, user_cap=args.cap_users)
    _emit(args, instance_to_json(inst, pretty=args.pretty))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.instance:
        inst = instance_from_json(Path(args.instance).read_text())
        profile, built = _infer_profile(inst)
    else:
        if args.m is None or args.t is None or args.sizes is None:
            raise ValueError("provide --instance or all of -m, -t and -S")
        profile = args.sizes
        inst = built = build_complete_s(args.m, args.t, profile, user_cap=args.cap_users)
    report = full_report(inst.m, inst.t, profile, q=args.field, user_cap=args.cap_users,
                         node_cap=args.cap_nodes)
    # the witness lists users as built does; complete-S users are distinct
    desired = dict(zip(built.users, report.witness_assignment))
    report = replace(report, witness_assignment=tuple(desired[a] for a in inst.users))
    obj = json.loads(report.to_json())
    if args.exact or args.heuristic:
        limit = inst.n if args.exact else 0
        chain = best_chain_bound(inst, report.witness_assignment, exact_limit=limit)
        obj["chain"] = {
            "value": chain.value,
            "exact": chain.exact,
            "ordering": [u + 1 for u in chain.ordering],
        }
    _emit(args, json.dumps(obj, indent=2 if args.pretty else None))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    code = LinearCode.from_json(Path(args.code).read_text(), m=inst.m)
    report = is_valid(code, inst)
    _emit(args, report.to_json(pretty=args.pretty))
    return 0 if report.valid else 1


def cmd_topology(args: argparse.Namespace) -> int:
    topo = network_topology(_load_instance(args))
    _emit(args, topo.to_json(pretty=args.pretty))
    return 0


def cmd_one_factor(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    topo = network_topology(inst)
    factor = has_one_factor(topo, node_cap=args.cap_nodes)
    obj: dict = {"factor": None, "code": None}
    if factor is not None:
        obj["factor"] = [j + 1 for j in factor]
        obj["code"] = json.loads(one_transmission_code(topo, factor).to_json())
    _emit(args, json.dumps(obj, indent=2 if args.pretty else None))
    return 0 if factor is not None else 1


def cmd_circular_arc(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    order = args.order if args.order is not None else tuple(range(inst.n))
    code, trace = circular_arc_scheme_with_trace(
        inst, order, q=args.field or 2, node_cap=args.cap_nodes
    )
    obj = {"rows": code.ell, "code": json.loads(code.to_json())}
    if args.trace:
        obj["trace"] = json.loads(trace.to_json())
    _emit(args, json.dumps(obj, indent=2 if args.pretty else None))
    return 0


def cmd_lemma3_sweep(args: argparse.Namespace) -> int:
    summary = sweep_intersection_families(args.ground_size)
    obj = asdict(summary) | {"ok": summary.ok}
    _emit(args, json.dumps(obj, indent=2 if args.pretty else None))
    return 0 if summary.ok else 1


def cmd_lemma4_random(args: argparse.Namespace) -> int:
    summary = random_averaging_suite(
        args.trials, args.seed, x_max=args.x_max, y_max=args.y_max
    )
    obj = asdict(summary) | {"ok": summary.ok}
    _emit(args, json.dumps(obj, indent=2 if args.pretty else None))
    return 0 if summary.ok else 1


def cmd_block_cover(args: argparse.Namespace) -> int:
    summary = block_cover_impossibility(
        args.m, args.s, args.t, args.max_block_size,
        collection_cap=args.cap_collections,
    )
    obj = asdict(summary) | {"impossible": summary.impossible}
    _emit(args, json.dumps(obj, indent=2 if args.pretty else None))
    return 0 if summary.impossible else 1


def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--pretty", action="store_true", help="indent JSON output")
    output.add_argument("-o", "--out", help="write output to a file instead of stdout")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("-m", type=_positive_arg, help="number of messages")
    source.add_argument("-t", type=_positive_arg, help="messages each user must decode")
    source.add_argument(
        "-S", dest="sizes", type=SizeProfile.parse,
        help="side-information sizes, e.g. '1' or '0,2-4'",
    )
    source.add_argument("--instance", help="path to an instance JSON file")
    source.add_argument(
        "--cap-users", type=_positive_arg, default=DEFAULT_USER_CAP,
        help="refuse to build instances with more users than this",
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
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--exact", action="store_true",
        help="attach an exact best-ordering chain bound for the witness assignment",
    )
    group.add_argument(
        "--heuristic", action="store_true",
        help="attach a greedy chain bound for the witness assignment",
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
        help="budget for the one-factor precheck",
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
    p.add_argument("--x-max", type=_positive_arg, default=8)
    p.add_argument("--y-max", type=_positive_arg, default=8)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PicodError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
