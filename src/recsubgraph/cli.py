"""Command-line front end.

Verbs: ``gen`` (write a random instance), ``solve`` (run one strategy),
``eval`` (score a stored selection), ``bounds`` (formula tables),
``oracle`` (exact optimum), ``matching`` (debug view of the matching
core), and ``experiment`` (seeded sweeps to CSV/plot data).

Exit codes: 0 on success, 1 for validation/configuration problems (usage
errors included), 2 for file problems.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from .bounds import (
    _check_point,
    _score,
    concentration_bound,
    greedy_expected_bound,
    required_ck,
    sampling_approx_ratio,
    sampling_lower_bound,
)
from .experiment import (
    MODELS,
    ExperimentSpec,
    emit_csv,
    emit_plotdata,
    run_experiment,
)
from .generate import MODEL_PARAMS, generate_instance
from .graph import BipartiteGraph, GraphError, ProblemParams, simplify
from .io import EdgeListError, read_edge_list, read_subgraph, write_edge_list, write_subgraph
from .matching import bounded_matching, hopcroft_karp
from .oracle import OracleSizeError, exact_opt
from .solvers import ALGORITHMS, ConfigError, SolverConfig, solve

__all__ = ["main"]

# Most rows ``bounds approx-ratio`` prints; a longer table is refused.
_APPROX_RATIO_MAX_ROWS = 100_000


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as parameter errors: exit 1, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_size_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l", type=int)
    parser.add_argument("--r", type=int)
    parser.add_argument("--d", type=int, help="fixed-degree draws per source")
    parser.add_argument("--p", type=float, help="edge probability")


def _load_instance(args) -> BipartiteGraph:
    if args.graph is not None:
        return read_edge_list(args.graph)
    if args.model is None:
        raise ConfigError("need either --graph or --model with its parameters")
    return generate_instance(args.model, args.seed, l=args.l, r=args.r, d=args.d, p=args.p)


def _cmd_gen(args) -> int:
    graph = _load_instance(args)
    # Files carry simple graphs, so parallel draws (possible in the
    # fixed-degree model) collapse here rather than warning on every read.
    note = ""
    if graph.has_parallel_edges():
        drawn = graph.m
        graph = simplify(graph)
        note = f" ({drawn} draws before removing parallel edges)"
    write_edge_list(graph, args.out)
    print(f"wrote {graph.l}x{graph.r} graph with {graph.m} edges{note} to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    config = SolverConfig(ProblemParams(c=args.c, a=args.a), args.seed, args.epsilon)
    graph = _load_instance(args)
    sel, report = solve(graph, args.algo, config)
    if args.out is not None:
        write_subgraph(sel, args.out)
    print(
        f"covered={report.covered} upper_bound={report.upper_bound} "
        f"ratio={report.ratio:.6f} elapsed_ms={report.elapsed_ms:.3f} "
        f"peak_edges_held={report.peak_edges_held}"
    )
    return 0


def _cmd_eval(args) -> int:
    graph = read_edge_list(args.graph)
    sel = read_subgraph(args.subgraph)
    c = args.c if args.c is not None else int(sel.out_degrees().max(initial=1))
    # No cap check: ``--c`` scores the bound and need not bind the selection.
    covered, bound, ratio = _score(graph, sel, ProblemParams(c=c, a=args.a), capped=False)
    print(f"covered={covered} upper_bound={bound} ratio={ratio:.6f}")
    return 0


def _require_flags(args, *names: str) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        raise ConfigError(
            f"bounds {args.table} needs --" + ", --".join(missing)
        )


def _cmd_bounds(args) -> int:
    if args.table == "required-ck":
        if args.a_min > args.a_max:
            raise ConfigError("need --a-min <= --a-max")
        # Every row before any is printed: a failing row leaves stdout empty.
        a_values = range(args.a_min, args.a_max + 1)
        rows = [f"{a} {required_ck(a, args.target):.6f}" for a in a_values]
        print("# a required_ck", *rows, sep="\n")
        return 0
    if args.table == "approx-ratio":
        if not all(math.isfinite(x) and x > 0 for x in (args.ck_min, args.ck_max, args.step)):
            raise ConfigError("--ck-min, --ck-max and --step must be finite and > 0")
        span = (args.ck_max - args.ck_min) / args.step
        if not 0 <= span <= _APPROX_RATIO_MAX_ROWS - 1:
            raise ConfigError(
                f"need --ck-min <= --ck-max and a table of at most {_APPROX_RATIO_MAX_ROWS} "
                f"rows, got {span:.3g} steps"
            )
        print("# ck ratio")
        for i in range(int(round(span)) + 1):
            ck = args.ck_min + i * args.step
            print(f"{ck:.6g} {sampling_approx_ratio(ck):.10f}")
        return 0
    if args.table == "sampling":
        _require_flags(args, "l", "r", "c", "a")
        print(f"{sampling_lower_bound(l=args.l, r=args.r, c=args.c, a=args.a):.6f}")
        return 0
    if args.table == "greedy":
        _require_flags(args, "l", "r", "c", "a", "p")
        value = greedy_expected_bound(l=args.l, r=args.r, c=args.c, a=args.a, p=args.p)
        print(f"{value:.6f}")
        return 0
    # "concentration", the last table the parser's choices allow.
    _require_flags(args, "l", "r", "c", "a")
    _check_point(args.l, args.r, args.c, args.a)
    threshold, prob = concentration_bound(r=args.r, ck=args.c * args.l / args.r)
    print(f"threshold={threshold:.6f} prob_bound={prob:.6e}")
    return 0


def _cmd_oracle(args) -> int:
    graph = read_edge_list(args.graph)
    value = exact_opt(graph, ProblemParams(c=args.c, a=args.a))
    print(f"exact_opt={value}")
    return 0


def _cmd_matching(args) -> int:
    graph = read_edge_list(args.graph)
    if args.max_path_len is None:
        result = hopcroft_karp(graph)
    else:
        result = bounded_matching(graph, args.max_path_len)
    print(f"size={result.size} phases={result.phases}")
    return 0


def _cmd_experiment(args) -> int:
    data: dict = {}
    if args.spec is not None:
        data = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            print(f"error: {args.spec}: a spec file must hold a JSON object", file=sys.stderr)
            return 2
    # Each flag's dest is the spec field it sets (``--graph`` sets ``path``).
    for field in fields(ExperimentSpec):
        value = getattr(args, field.name, None)
        if value is not None:
            data[field.name] = value
    if args.c_min is not None or args.c_max is not None:
        if None in (args.c_min, args.c_max):
            raise ConfigError("--c-min and --c-max go together")
        data.pop("sweep", None)
        data["c_range"] = [args.c_min, args.c_max]
        data["a"] = args.a if args.a is not None else 1
    elif args.pairs is not None:
        data.pop("c_range", None)
        data.pop("a", None)
        data["sweep"] = [
            [int(x) for x in cell.split(",")] for cell in args.pairs.split()
        ]
    if args.path is not None and "model" not in data:
        data["model"] = "file"
    spec = ExperimentSpec.from_mapping(data)
    rows, aggregates = run_experiment(spec)
    if args.csv is not None:
        emit_csv(rows, args.csv)
    if args.plot is not None:
        emit_plotdata(aggregates, args.plot)
    print(f"{'c':>4} {'a':>3} {'algo':>10} {'n':>5} {'mean_ratio':>11} {'stderr':>9}")
    for agg in aggregates:
        print(
            f"{agg.c:>4} {agg.a:>3} {agg.algo:>10} {agg.n:>5} "
            f"{agg.mean_ratio:>11.4f} {agg.stderr_ratio:>9.4f}"
        )
    skipped = [row for row in rows if row.skip_reason is not None]
    if skipped:
        print(f"# skipped {len(skipped)} cell run(s): {skipped[0].skip_reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recsubgraph",
        description="Budgeted link selection on bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("model", choices=tuple(MODEL_PARAMS))
    _add_size_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", type=Path, required=True)
    p.set_defaults(func=_cmd_gen, graph=None)  # so _load_instance generates

    p = sub.add_parser("solve", help="run one strategy on an instance")
    p.add_argument("--graph", type=Path, help="read the instance from a file")
    p.add_argument("--model", choices=tuple(MODEL_PARAMS), help="or generate one")
    _add_size_flags(p)
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("-o", "--out", type=Path, help="write the selection here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="score a stored selection against its graph")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--subgraph", type=Path, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, help="budget for the upper bound (default: max picked)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bounds", help="formula tables")
    p.add_argument(
        "table",
        choices=("required-ck", "approx-ratio", "sampling", "greedy", "concentration"),
    )
    p.add_argument("--target", type=float, default=0.95)
    p.add_argument("--a-min", type=int, default=1)
    p.add_argument("--a-max", type=int, default=5)
    p.add_argument("--ck-min", type=float, default=0.01)
    p.add_argument("--ck-max", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.01,
                   help=f"ck spacing; the table may hold at most {_APPROX_RATIO_MAX_ROWS} rows")
    p.add_argument("--l", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--p", type=float)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("oracle", help="exact optimum (refuses huge subset searches)")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("matching", help="matching-core debug view")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--max-path-len", type=int)
    p.set_defaults(func=_cmd_matching)

    p = sub.add_parser("experiment", help="seeded sweep to CSV / plot data")
    p.add_argument("--spec", type=Path, help="JSON spec file (flags override it)")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--graph", dest="path", metavar="GRAPH",
                   help="instance file for the file model")
    _add_size_flags(p)
    p.add_argument("--c-min", type=int)
    p.add_argument("--c-max", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--pairs", help="explicit cells, e.g. '1,1 2,1 4,2'")
    p.add_argument("--algos", type=lambda text: tuple(text.split(",")),
                   help="comma-separated subset of: " + ",".join(ALGORITHMS))
    p.add_argument("--trials", type=int)
    p.add_argument("--base-seed", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--no-timing", dest="measure_time", action="store_false", default=None,
                   help="write elapsed_ms as 0.0 for byte-reproducible CSV")
    p.add_argument("--csv", type=Path)
    p.add_argument("--plot", type=Path)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A shown warning is one "warning:" line on stderr, without Python's
    # source line; the filters in force still decide what is shown or raised.
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (EdgeListError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (GraphError, ConfigError, OracleSizeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
