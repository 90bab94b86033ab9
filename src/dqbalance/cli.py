"""Command-line interface.

Exit codes: 0 balanced, 1 unbalanced, 2 indeterminate, 3 usage error,
4 input/output or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .balance import (
    BalanceReport,
    Method,
    NotUnitWeightTypeError,
    Verdict,
    build_potential,
    check_balance,
    potential_certified,
    wdg_similarity_check,
)
from .bench import run_benchmark, save_csv, write_csv
from .generate import cycle_arc, gen_cycle, gen_random_balanced, gen_tree, perturb
from .graphs import WeightType
from .serialize import (
    GraphFormatError,
    dumps_graph,
    load_graph,
    report_to_obj,
    save_graph,
)

USAGE_EXIT = 3
IO_EXIT = 4

_TYPE_ALIASES = {
    "udq": WeightType.UNIT_DUAL_QUATERNION,
    "udc": WeightType.UNIT_COMPLEX,
    "dq": WeightType.DUAL_QUATERNION,
    "complex": WeightType.COMPLEX,
    "real": WeightType.REAL,
}

_METHOD_ALIASES = {
    "direct": Method.DIRECT,
    "gain": Method.GAIN_GRAPH,
    "cycles": Method.CYCLE_ORACLE,
    "wdg": Method.WDG_SIMILARITY,
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the reserved code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _weight_type(name: str) -> WeightType:
    key = name.lower()
    if key in _TYPE_ALIASES:
        return _TYPE_ALIASES[key]
    try:
        return WeightType(key)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown weight type {name!r} (use udq, udc, dq, complex or real)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dqbalance",
                     description="Balance checking for (dual) quaternion weighted digraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[], help="check a graph file")
    p_check.add_argument("file")
    p_check.add_argument("--method", default="all",
                         choices=["direct", "gain", "cycles", "wdg", "all"])
    p_check.add_argument("--json", action="store_true", help="emit JSON reports")

    p_gen = sub.add_parser("gen", help="generate a graph file")
    p_gen.add_argument("kind", choices=["cycle", "tree", "random"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--type", type=_weight_type, default=WeightType.UNIT_DUAL_QUATERNION,
                       help="udq, udc, dq, complex or real")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--density", type=float, default=0.1,
                       help="extra-arc probability for 'random'")
    p_gen.add_argument("--dst", action="store_true",
                       help="orient tree arcs so vertex 1 is reachable from everywhere")
    p_gen.add_argument("--unbalanced", action="store_true",
                       help="perturb one on-cycle arc so the result is unbalanced")
    p_gen.add_argument("--out", help="output path (default: stdout)")

    p_bench = sub.add_parser("bench", help="run the cycle benchmark grid")
    p_bench.add_argument("--sizes", default="10,20,50,100,200,500")
    p_bench.add_argument("--types", default="udc,udq")
    p_bench.add_argument("--methods", default="direct,gain")
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="CSV output path (default: stdout)")

    p_pot = sub.add_parser("verify-potential",
                           help="construct and certify a potential function")
    p_pot.add_argument("file")
    p_pot.add_argument("--json", action="store_true")
    return parser


def _print_report(report: BalanceReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report_to_obj(report), indent=2))
        return
    bits = [f"method={report.method.value}", f"verdict={report.verdict.value}"]
    if report.err is not None:
        bits.append(f"err={report.err:.3e}")
    if report.failure_stage is not None:
        bits.append(f"stage={report.failure_stage.value}")
    if report.witness is not None:
        bits.append(f"witness={list(report.witness.vertices)}")
    if report.seconds is not None:
        bits.append(f"seconds={report.seconds:.4f}")
    print("  ".join(bits))


def _verdict_exit(verdicts: list[Verdict]) -> int:
    if Verdict.UNBALANCED in verdicts:
        return 1
    if Verdict.INDETERMINATE in verdicts:
        return 2
    return 0


def _cmd_check(args) -> int:
    g = load_graph(args.file)
    if args.method == "all":
        if g.weight_type.is_unit:
            methods = [Method.DIRECT, Method.GAIN_GRAPH, Method.CYCLE_ORACLE]
        else:
            methods = [Method.CYCLE_ORACLE, Method.WDG_SIMILARITY]
    else:
        methods = [_METHOD_ALIASES[args.method]]
    reports = []
    for method in methods:
        try:
            reports.append(check_balance(g, method))
        except NotUnitWeightTypeError as exc:
            print(f"dqbalance: {exc}", file=sys.stderr)
            return USAGE_EXIT
    for report in reports:
        _print_report(report, args.json)
    return _verdict_exit([r.verdict for r in reports])


def _cmd_gen(args) -> int:
    if args.n < 1 or (args.kind == "cycle" and args.n < 3):
        print("dqbalance: --n too small for the requested kind", file=sys.stderr)
        return USAGE_EXIT
    if args.kind == "cycle":
        g = gen_cycle(args.n, args.type, args.seed)
    elif args.kind == "tree":
        g = gen_tree(args.n, args.type, args.seed)
    else:
        g = gen_random_balanced(args.n, args.density, args.type, args.seed,
                                directed_spanning_tree=args.dst)
    if args.unbalanced:
        arc = cycle_arc(g)
        if arc is None:
            print("dqbalance: graph is acyclic; every weighting is balanced",
                  file=sys.stderr)
            return USAGE_EXIT
        g = perturb(g, arc, args.seed + 1)
    if args.out:
        save_graph(g, args.out)
    else:
        print(dumps_graph(g))
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        types = [_weight_type(t) for t in args.types.split(",") if t]
        methods = [_METHOD_ALIASES[m.strip()] for m in args.methods.split(",") if m]
    except (ValueError, KeyError, argparse.ArgumentTypeError) as exc:
        print(f"dqbalance: bad benchmark grid: {exc}", file=sys.stderr)
        return USAGE_EXIT
    records = run_benchmark(sizes, types, methods,
                            repetitions=args.reps, seed=args.seed)
    if args.out:
        save_csv(records, args.out)
    else:
        write_csv(records, sys.stdout)
    return 0


def _cmd_verify_potential(args) -> int:
    g = load_graph(args.file)
    assignment = build_potential(g)
    if assignment is None:
        print("no potential function exists: graph is unbalanced")
        return 1
    err, null_residual = wdg_similarity_check(g, assignment)
    balanced = potential_certified(g, err, null_residual)
    if args.json:
        print(json.dumps({
            "balanced": balanced,
            "err": err,
            "null_residual": null_residual,
            "theta": {str(v): list(t.to_array()) for v, t in sorted(assignment.theta.items())},
            "c": {f"{i},{j}": c for (i, j), c in sorted(assignment.c.items())},
        }, indent=2))
    else:
        print(f"potential found  err={err:.3e}  null_residual={null_residual:.3e}")
    return 0 if balanced else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
        "verify-potential": _cmd_verify_potential,
    }
    try:
        return handlers[args.command](args)
    except (GraphFormatError, OSError) as exc:
        print(f"dqbalance: {exc}", file=sys.stderr)
        return IO_EXIT
    except ValueError as exc:
        print(f"dqbalance: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
