"""The four benchmark workloads: sweep, bulk, files and certify.

Each workload is a closed loop in one process: the next call into the
package starts only after the previous one returned.  A workload has four
steps, and ``run.py`` repeats the first three until the run's time is used:

* ``setup``     makes the inputs of one pass (timed as set-up, not as work);
* ``run_pass``  makes the timed calls and returns a :class:`Pass` holding one
  deterministic record per call;
* ``check``     verifies the first pass without the package's own checks;
  later passes must repeat its records exactly;
* ``decompose`` (traced runs only) calls the public pieces that a pass only
  reaches through another layer, on the same inputs, so each layer gets
  its own spans and counts.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import re
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from recsubgraph import (
    CSV_HEADER,
    BipartiteGraph,
    ErdosRenyiSpec,
    ExperimentSpec,
    FixedDegreeSpec,
    ProblemParams,
    SolverConfig,
    bounded_matching,
    coverage,
    emit_csv,
    emit_plotdata,
    exact_opt,
    gen_erdos_renyi,
    gen_fixed_degree,
    greedy_with_stats,
    hopcroft_karp,
    mix_seed,
    partition_with_stats,
    read_edge_list,
    read_subgraph,
    run_experiment,
    sampling_with_stats,
    simplify,
    solve,
    upper_bound_estimate,
    validate,
    write_edge_list,
    write_subgraph,
)
from recsubgraph.cli import main as cli_main

import verify

ALGOS = ("sampling", "greedy", "partition")
RUNNERS = {
    "sampling": sampling_with_stats,
    "greedy": greedy_with_stats,
    "partition": partition_with_stats,
}

# Sizes per workload.  "full" is the benchmark; "smoke" runs everything in
# seconds for the smoke test.
SIZES = {
    "full": {
        "sweep": {"l": 500, "r": 2000, "d": 20, "c_max": 10, "trials": 3},
        "bulk": {"l": 100_000, "r": 400_000, "d": 20},
        "files": {"l": 20_000, "r": 20_000, "p": 4e-4},
        "certify": {"instances": 400, "l_min": 12, "l_max": 20, "d": 3},
    },
    "smoke": {
        "sweep": {"l": 40, "r": 120, "d": 5, "c_max": 3, "trials": 1},
        "bulk": {"l": 2_000, "r": 8_000, "d": 20},
        "files": {"l": 300, "r": 300, "p": 0.02},
        "certify": {"instances": 4, "l_min": 12, "l_max": 14, "d": 3},
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def selection_sha(sub) -> str:
    return sha(sub.indptr.tobytes() + sub.targets.tobytes())


@dataclass
class Pass:
    """What one timed pass produced.

    ``ops`` holds one ``(label, record)`` per package call, with only
    deterministic values in the record; ``payloads`` is aligned with it and
    carries what ``check`` needs (selections, parsed output), dropped after
    the check.
    """

    calls: list[tuple[float, int]]  # (seconds, calibration point) per timed call
    solve_ms: dict[str, list[tuple[float, int]]] = field(default_factory=lambda: {a: [] for a in ALGOS})
    ratio: dict[str, list[float]] = field(default_factory=lambda: {a: [] for a in ALGOS})
    opt_ratio: list[float] = field(default_factory=list)
    ops: list[tuple[str, tuple]] = field(default_factory=list)
    payloads: list = field(default_factory=list)
    traced: bool = False
    loop_s: float = 0.0  # run_pass as the run loop saw it: spans and record-keeping included

    def op(self, label: str, record: tuple, payload=None) -> None:
        self.ops.append((label, record))
        self.payloads.append(payload)

    def drop_records(self) -> None:
        """Forget what only the first pass is kept for, so memory stays flat."""
        self.ops = []
        self.ratio = {}
        self.opt_ratio = []

    @property
    def wall_s(self) -> float:
        return sum(seconds for seconds, _ in self.calls)

    def add_solve(self, algo: str, ms: float, point: int, covered: int, bound: int) -> None:
        self.solve_ms[algo].append((ms, point))
        self.ratio[algo].append(1.0 if bound == 0 else covered / bound)


def timed_solve(clock, graph, algo: str, config: SolverConfig):
    """``solve()`` as a caller sees it; the span keeps solve() minus solver time."""
    (sel, report), wait, sp = clock("solvers.solve", solve, graph, algo, config, algo=algo)
    sp.set(overhead_s=wait - report.elapsed_ms / 1e3)
    return sel, report, wait, clock.calls[-1][1]


def _cli(argv: list[str], out: io.StringIO, err: io.StringIO) -> int:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli_main(argv)


def trace_graph(tracer, graph: BipartiteGraph, params: ProblemParams, seed: int) -> list[str]:
    """Graph and bounds pieces, timed on fresh builds of ``graph``'s edges.

    The edges are fed in one fixed shuffled order, so construction sorts real
    work and the distinct-degree cache starts cold.
    """
    problems: list[str] = []
    perm = np.random.default_rng(seed).permutation(graph.m)
    eu = graph.edge_u[perm]
    ev = graph.edge_v[perm]
    with tracer.span("graph.BipartiteGraph", edges=graph.m) as build:
        fresh = BipartiteGraph(graph.l, graph.r, eu, ev)
    with tracer.span("graph.distinct_in_degrees"):
        deg = fresh.distinct_in_degrees()
    if not np.array_equal(deg, graph.distinct_in_degrees()):
        problems.append("distinct in-degrees depend on edge order")
    del fresh, deg
    tracemalloc.start()
    try:
        BipartiteGraph(graph.l, graph.r, eu, ev)
        build.set(peak_mb=tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    fresh = BipartiteGraph(graph.l, graph.r, eu, ev)
    with tracer.span("bounds.upper_bound_estimate.first"):
        first = upper_bound_estimate(fresh, params)
    with tracer.span("bounds.upper_bound_estimate.cached"):
        again = upper_bound_estimate(fresh, params)
    with tracer.span("graph.simplify") as sp:
        simple = simplify(fresh)
        sp.set(parallel_edges=fresh.m - simple.m)
    if first != again:
        problems.append(f"upper bound changed between calls: {first} then {again}")
    return problems


def trace_solves(tracer, graph, jobs, call_solve: bool) -> list[str]:
    """Solver, validation and scoring called one by one on the pass's inputs.

    ``jobs`` are ``(algo, config, covered)`` with the coverage the pass saw;
    every piece must reproduce it.
    """
    problems: list[str] = []
    for algo, config, covered in jobs:
        if call_solve:
            with tracer.span("solvers.solve", algo=algo) as sp:
                t0 = time.perf_counter()
                _, report = solve(graph, algo, config)
                sp.set(overhead_s=time.perf_counter() - t0 - report.elapsed_ms / 1e3)
            if report.covered != covered:
                problems.append(f"solve() {algo} covered {report.covered}, pass saw {covered}")
        with tracer.span(f"solvers.{algo}_with_stats") as sp:
            sel, stats = RUNNERS[algo](graph, config)
            sp.set(
                edges_touched=stats.edges_touched,
                peak_aux=stats.peak_aux,
                n_selected=sel.n_selected,
                budget=graph.l * config.params.c,
            )
            if algo == "partition":
                sp.set(matching_scans=stats.edges_touched - graph.m)
        with tracer.span("graph.validate"):
            bad = validate(graph, sel, config.params)
        with tracer.span("graph.coverage"):
            got = coverage(graph, sel, config.params.a)
        if bad or got != covered:
            problems.append(f"{algo} direct call covered {got} ({bad[:1]}), pass saw {covered}")
    return problems


class Sweep:
    """Monte-Carlo sweep through ``run_experiment``, then CSV and plot data."""

    name = "sweep"
    A_VALUES = (1, 2)

    def __init__(self, size: dict, seed: int, workdir: Path, clock) -> None:
        self.size = size
        self.seed = seed
        self.clock = clock
        self.tracer = clock.tracer
        self.csv = workdir / "sweep.csv"
        self.plot = workdir / "sweep.dat"

    def setup(self) -> ExperimentSpec:
        s = self.size
        return ExperimentSpec(
            model="fixed-degree",
            l=s["l"],
            r=s["r"],
            d=s["d"],
            sweep=tuple((c, a) for c in range(1, s["c_max"] + 1) for a in self.A_VALUES),
            algos=ALGOS,
            trials=s["trials"],
            base_seed=self.seed,
        )

    def run_pass(self, spec: ExperimentSpec) -> Pass:
        clock = self.clock
        (rows, aggregates), _, sp = clock("experiment.run_experiment", run_experiment, spec)
        sp.set(rows=len(rows))
        point = clock.calls[-1][1]
        clock("experiment.emit_csv", emit_csv, rows, self.csv)
        clock("experiment.emit_plotdata", emit_plotdata, aggregates, self.plot)
        p = Pass(clock.take())
        for row in rows:
            if row.skip_reason is not None:
                p.op("skip", (row.trial, row.c, row.a, row.algo), row)
                continue
            # run_experiment keeps the solver's own time per row; what its
            # caller waits for per solve() is not visible from outside.
            p.add_solve(row.algo, row.elapsed_ms, point, row.covered, row.upper_bound)
            p.op(
                "row",
                (row.trial, row.seed, row.c, row.a, row.algo, row.covered, row.upper_bound, repr(row.ratio)),
                row,
            )
        lines = self.csv.read_text(encoding="utf-8").splitlines()
        zeroed = []
        for line in lines[1:]:
            head, _, last = line.rpartition(",")
            zeroed.append(head + (",0.0" if last else ","))
        p.op("emit_csv", (len(lines), sha("\n".join(zeroed).encode())), (rows, lines))
        plots = sorted(self.plot.parent.glob(f"{self.plot.stem}*{self.plot.suffix}"))
        p.op(
            "emit_plotdata",
            tuple((f.name, sha(f.read_bytes())) for f in plots),
            [f.read_text(encoding="utf-8") for f in plots],
        )
        return p

    def _graph(self, seed: int):
        s = self.size
        return gen_fixed_degree(FixedDegreeSpec(s["l"], s["r"], s["d"], seed))

    def check(self, spec: ExperimentSpec, p: Pass) -> list[list[str]]:
        s = self.size
        out: list[list[str]] = []
        graphs: dict[int, tuple] = {}
        for (label, _), payload in zip(p.ops, p.payloads):
            probs: list[str] = []
            if label == "emit_csv":
                rows, lines = payload
                if lines[0] != CSV_HEADER or len(lines) != len(rows) + 1:
                    probs.append("CSV header or row count is wrong")
                else:
                    for row, line in zip(rows, lines[1:]):
                        fields = line.split(",")
                        want = ["", ""] if row.skip_reason else [str(row.covered), str(row.upper_bound)]
                        if fields[9:11] != want:
                            probs.append(f"CSV line {line!r} disagrees with its row")
                            break
            elif label == "emit_plotdata":
                if len(payload) != len(self.A_VALUES) or any(
                    len(text.splitlines()) != 1 + s["c_max"] for text in payload
                ):
                    probs.append("plot data has the wrong shape")
            else:
                row = payload
                if row.trial not in graphs:
                    seed = mix_seed(spec.base_seed, row.trial)
                    graph = self._graph(seed)
                    graphs.clear()
                    graphs[row.trial] = (seed, graph, verify.candidate_keys(graph.edge_u, graph.edge_v, graph.r))
                seed, graph, keys = graphs[row.trial]
                skip = row.algo == "partition" and row.a > row.c
                if row.seed != seed:
                    probs.append(f"trial seed {row.seed}, expected {seed}")
                if skip != (label == "skip"):
                    probs.append("skipped cell mismatch")
                elif not skip:
                    config = SolverConfig(ProblemParams(row.c, row.a), seed=row.seed, epsilon=spec.epsilon)
                    sel, report = solve(graph, row.algo, config)
                    bound = verify.upper_bound(graph.l, graph.r, keys, row.c, row.a)
                    probs += verify.selection_problems(
                        graph.l, graph.r, keys, *verify.subgraph_pairs(sel),
                        row.c, row.a, row.covered, bound,
                    )
                    if report.covered != row.covered:
                        probs.append(f"re-solve covered {report.covered}, row has {row.covered}")
                    if row.upper_bound != bound:
                        probs.append(f"upper bound {row.upper_bound}, expected {bound}")
                    if row.ratio != (1.0 if bound == 0 else row.covered / bound):
                        probs.append("ratio is not covered / upper bound")
            out.append(probs)
        return out

    def decompose(self, spec: ExperimentSpec, p: Pass) -> list[str]:
        tr = self.tracer
        problems: list[str] = []
        rows = [payload for (label, _), payload in zip(p.ops, p.payloads) if label == "row"]
        for trial in range(spec.trials):
            seed = mix_seed(spec.base_seed, trial)
            with tr.span("generate.gen_fixed_degree"):
                graph = self._graph(seed)
            problems += trace_graph(tr, graph, ProblemParams(*spec.sweep[0]), seed)
            jobs = [
                (row.algo, SolverConfig(ProblemParams(row.c, row.a), seed=seed, epsilon=spec.epsilon), row.covered)
                for row in rows
                if row.trial == trial
            ]
            problems += trace_solves(tr, graph, jobs, call_solve=True)
        return problems


class Bulk:
    """One large fixed-degree instance; sampling and greedy, no matching."""

    name = "bulk"
    ALGOS = ("sampling", "greedy")
    CELLS = ((3, 1), (3, 2))

    def __init__(self, size: dict, seed: int, workdir: Path, clock) -> None:
        self.size = size
        self.seed = seed
        self.clock = clock
        self.tracer = clock.tracer

    def setup(self) -> BipartiteGraph:
        s = self.size
        with self.tracer.span("generate.gen_fixed_degree"):
            return gen_fixed_degree(FixedDegreeSpec(s["l"], s["r"], s["d"], self.seed))

    def _jobs(self):
        for algo in self.ALGOS:
            for c, a in self.CELLS:
                yield algo, SolverConfig(ProblemParams(c, a), seed=self.seed)

    def run_pass(self, graph: BipartiteGraph) -> Pass:
        done = [(algo, config, *timed_solve(self.clock, graph, algo, config)) for algo, config in self._jobs()]
        p = Pass(self.clock.take())
        for algo, config, sel, report, wait, point in done:
            params = config.params
            p.add_solve(algo, wait * 1e3, point, report.covered, report.upper_bound)
            p.op(
                "solve",
                (algo, params.c, params.a, report.covered, report.upper_bound,
                 report.peak_edges_held, sel.n_selected, selection_sha(sel)),
                (algo, config, sel, report),
            )
        return p

    def check(self, graph: BipartiteGraph, p: Pass) -> list[list[str]]:
        keys = verify.candidate_keys(graph.edge_u, graph.edge_v, graph.r)
        out = []
        for _, config, sel, report in p.payloads:
            c, a = config.params.c, config.params.a
            bound = verify.upper_bound(graph.l, graph.r, keys, c, a)
            probs = verify.selection_problems(
                graph.l, graph.r, keys, *verify.subgraph_pairs(sel), c, a, report.covered, bound
            )
            if report.upper_bound != bound:
                probs.append(f"upper bound {report.upper_bound}, expected {bound}")
            out.append(probs)
        return out

    def decompose(self, graph: BipartiteGraph, p: Pass) -> list[str]:
        problems = trace_graph(self.tracer, graph, ProblemParams(*self.CELLS[0]), self.seed)
        jobs = [(algo, config, report.covered) for algo, config, _, report in p.payloads]
        return problems + trace_solves(self.tracer, graph, jobs, call_solve=False)


class Files:
    """An in-process command-line session: gen, solve/eval three times, matching."""

    name = "files"
    JOBS = (("sampling", 3, 1), ("greedy", 3, 2), ("partition", 3, 2))
    MAX_PATH_LEN = 5

    def __init__(self, size: dict, seed: int, workdir: Path, clock) -> None:
        self.size = size
        self.seed = seed
        self.clock = clock
        self.tracer = clock.tracer
        self.workdir = workdir
        self.graph_path = workdir / "graph.txt"

    def _sel_path(self, algo: str) -> Path:
        return self.workdir / f"{algo}.sel"

    def setup(self) -> list[tuple[str, list[str]]]:
        s = self.size
        g = str(self.graph_path)
        cmds = [
            ("gen", ["gen", "erdos-renyi", "--l", str(s["l"]), "--r", str(s["r"]),
                     "--p", repr(s["p"]), "--seed", str(self.seed), "-o", g]),
        ]
        for algo, c, a in self.JOBS:
            sel = str(self._sel_path(algo))
            cmds.append(("solve", ["solve", "--graph", g, "--algo", algo, "--c", str(c),
                                   "--a", str(a), "--seed", str(self.seed), "-o", sel]))
            cmds.append(("eval", ["eval", "--graph", g, "--subgraph", sel,
                                  "--a", str(a), "--c", str(c)]))
        cmds.append(("matching", ["matching", "--graph", g, "--max-path-len", str(self.MAX_PATH_LEN)]))
        return cmds

    def run_pass(self, cmds) -> Pass:
        done = []
        for verb, argv in cmds:
            out, err = io.StringIO(), io.StringIO()
            code, wait, _ = self.clock(f"cli.{verb}", _cli, argv, out, err)
            done.append((verb, code, out.getvalue(), err.getvalue(), wait, self.clock.calls[-1][1]))
        p = Pass(self.clock.take())
        jobs = iter(self.JOBS)
        for verb, code, text, err, wait, point in done:
            kv = dict(re.findall(r"(\w+)=(\S+)", text))
            if verb == "gen":
                found = re.search(r"with (\d+) edges", text)
                record = (code, int(found.group(1)) if found else None)
            elif verb == "solve":
                algo, c, a = next(jobs)
                record = (algo, c, a, code, kv.get("covered"), kv.get("upper_bound"),
                          kv.get("ratio"), kv.get("peak_edges_held"))
                if code == 0:
                    p.add_solve(algo, wait * 1e3, point, int(kv["covered"]), int(kv["upper_bound"]))
            elif verb == "eval":
                record = (algo, c, a, code, kv.get("covered"), kv.get("upper_bound"), kv.get("ratio"))
            else:
                record = (code, kv.get("size"), kv.get("phases"))
            p.op(verb, record, err)
        paths = [self.graph_path] + [self._sel_path(algo) for algo, _, _ in self.JOBS]
        p.op("files", tuple(sha(path.read_bytes()) if path.exists() else None for path in paths))
        return p

    def check(self, cmds, p: Pass) -> list[list[str]]:
        s = self.size
        out: list[list[str]] = [[] for _ in p.ops]
        records = [rec for _, rec in p.ops]
        for i, ((verb, rec), err) in enumerate(zip(p.ops, p.payloads)):
            code = rec[3] if verb in ("solve", "eval") else rec[0]
            if verb != "files" and code != 0:
                out[i].append(f"exit code not 0: {err.strip()[-200:]}")
        try:
            l, r, eu, ev = verify.parse_edge_file(self.graph_path.read_text(encoding="utf-8"), "bipartite")
        except (OSError, ValueError) as exc:
            out[0].append(f"graph file unreadable: {exc}")
            return out
        keys = verify.candidate_keys(eu, ev, r)
        if (l, r) != (s["l"], s["r"]) or eu.size != records[0][1]:
            out[0].append("graph file disagrees with gen's report")
        if keys.size != eu.size:
            out[0].append("graph file repeats an edge")
        for i in range(1, 1 + 2 * len(self.JOBS), 2):
            algo, c, a, _, covered, bound, _, _ = records[i]
            if records[i + 1][4:6] != (covered, bound):
                out[i + 1].append(f"eval says {records[i + 1][4:6]}, solve said {(covered, bound)}")
            try:
                sl, sr, su, sv = verify.parse_edge_file(
                    self._sel_path(algo).read_text(encoding="utf-8"), "recsubgraph"
                )
                covered, bound = int(covered), int(bound)
            except (OSError, TypeError, ValueError) as exc:
                out[i].append(f"selection unreadable: {exc}")
                continue
            want = verify.upper_bound(l, r, keys, c, a)
            if (sl, sr) != (l, r):
                out[i].append("selection header disagrees with the graph")
            out[i] += verify.selection_problems(l, r, keys, su, sv, c, a, covered, want)
            if bound != want:
                out[i].append(f"upper bound {bound}, expected {want}")
        size = records[-2][1]
        if size is None or not 0 < int(size) <= min(l, r):
            out[-2].append(f"matching size {size} out of range")
        return out

    def decompose(self, cmds, p: Pass) -> list[str]:
        tr = self.tracer
        s = self.size
        problems: list[str] = []
        with tr.span("generate.gen_erdos_renyi"):
            made = gen_erdos_renyi(ErdosRenyiSpec(s["l"], s["r"], s["p"], self.seed))
        problems += trace_graph(tr, made, ProblemParams(*self.JOBS[0][1:]), self.seed)
        with tr.span("io.read_edge_list", bytes=self.graph_path.stat().st_size) as sp:
            graph = read_edge_list(self.graph_path)
            sp.set(edges=graph.m)
        if not (np.array_equal(graph.edge_u, made.edge_u) and np.array_equal(graph.edge_v, made.edge_v)):
            problems.append("graph file does not hold the generated graph")
        copy = self.workdir / "copy.txt"
        with tr.span("io.write_edge_list") as sp:
            write_edge_list(graph, copy)
        sp.set(bytes=copy.stat().st_size)
        if copy.read_bytes() != self.graph_path.read_bytes():
            problems.append("rewriting the graph changes its bytes")
        records = [rec for _, rec in p.ops]
        jobs = []
        for i, (algo, c, a) in enumerate(self.JOBS):
            path = self._sel_path(algo)
            with tr.span("io.read_subgraph", bytes=path.stat().st_size):
                sub = read_subgraph(path)
            with tr.span("io.write_subgraph") as sp:
                write_subgraph(sub, copy)
            sp.set(bytes=copy.stat().st_size)
            if copy.read_bytes() != path.read_bytes():
                problems.append(f"rewriting the {algo} selection changes its bytes")
            jobs.append((algo, SolverConfig(ProblemParams(c, a), seed=self.seed), int(records[1 + 2 * i][4])))
        problems += trace_solves(tr, graph, jobs, call_solve=True)
        with tr.span("matching.bounded_matching") as sp:
            match = bounded_matching(graph, self.MAX_PATH_LEN)
            sp.set(phases=match.phases)
        if (str(match.size), str(match.phases)) != records[-2][1:]:
            problems.append("matching differs from the command line's")
        return problems


class Certify:
    """Many tiny instances, each solved exactly and by all three strategies."""

    name = "certify"
    CELLS = ((1, 1), (2, 1), (2, 2), (3, 2))
    MAX_PATH_LEN = 3

    def __init__(self, size: dict, seed: int, workdir: Path, clock) -> None:
        self.clock = clock
        self.tracer = clock.tracer
        self.seed = seed
        rng = np.random.default_rng(seed)
        n = size["instances"]
        sides = rng.integers(size["l_min"], size["l_max"] + 1, n)
        seeds = rng.integers(0, 2**63, n)
        self.specs = [
            FixedDegreeSpec(int(side), int(side), size["d"], int(s)) for side, s in zip(sides, seeds)
        ]

    def setup(self) -> list[BipartiteGraph]:
        with self.tracer.span("generate.gen_fixed_degree", graphs=len(self.specs)):
            return [gen_fixed_degree(spec) for spec in self.specs]

    def run_pass(self, graphs) -> Pass:
        clock = self.clock
        done = []
        for i, graph in enumerate(graphs):
            seed = self.specs[i].seed
            for c, a in self.CELLS:
                params = ProblemParams(c, a)
                opt, _, _ = clock("oracle.exact_opt", exact_opt, graph, params)
                solved = [
                    (algo, *timed_solve(clock, graph, algo, SolverConfig(params, seed=seed)))
                    for algo in ALGOS
                ]
                done.append((i, c, a, opt, solved))
            full, _, sp = clock("matching.hopcroft_karp", hopcroft_karp, graph)
            sp.set(phases=full.phases)
            capped, _, sp = clock("matching.bounded_matching", bounded_matching, graph, self.MAX_PATH_LEN)
            sp.set(phases=capped.phases)
            done.append((i, full, capped))
        p = Pass(clock.take())
        for item in done:
            if len(item) == 3:
                i, full, capped = item
                p.op("hopcroft_karp", (i, full.size, full.phases), (i, full, None))
                p.op("bounded_matching", (i, capped.size, capped.phases), (i, capped, full.size))
                continue
            i, c, a, opt, solved = item
            p.op("exact_opt", (i, c, a, opt), (i, c, a, opt, None, None))
            for algo, sel, report, wait, point in solved:
                p.add_solve(algo, wait * 1e3, point, report.covered, report.upper_bound)
                if opt > 0:
                    p.opt_ratio.append(report.covered / opt)
                p.op(
                    "solve",
                    (i, c, a, algo, report.covered, report.upper_bound,
                     report.peak_edges_held, selection_sha(sel)),
                    (i, c, a, opt, sel, report),
                )
        return p

    def check(self, graphs, p: Pass) -> list[list[str]]:
        keys = [verify.candidate_keys(g.edge_u, g.edge_v, g.r) for g in graphs]
        out = []
        for label, payload in zip((lab for lab, _ in p.ops), p.payloads):
            probs: list[str] = []
            if label in ("hopcroft_karp", "bounded_matching"):
                i, match, full_size = payload
                g = graphs[i]
                probs += verify.matching_problems(match.match_l, match.match_r, match.size, g.r, keys[i])
                if full_size is None:
                    best = verify.max_matching_size(g.l, g.r, keys[i])
                    if match.size != best:
                        probs.append(f"maximum matching {match.size}, expected {best}")
                elif not 2 * full_size <= 3 * match.size <= 3 * full_size:
                    # No augmenting path of length <= 3 leaves at least 2/3 of the maximum.
                    probs.append(f"capped matching {match.size} vs maximum {full_size}")
            else:
                i, c, a, opt, sel, report = payload
                g = graphs[i]
                bound = verify.upper_bound(g.l, g.r, keys[i], c, a)
                if sel is None:
                    if not 0 <= opt <= bound:
                        probs.append(f"exact optimum {opt} outside [0, {bound}]")
                else:
                    probs += verify.selection_problems(
                        g.l, g.r, keys[i], *verify.subgraph_pairs(sel), c, a, report.covered, bound
                    )
                    if report.upper_bound != bound:
                        probs.append(f"upper bound {report.upper_bound}, expected {bound}")
                    if report.covered > opt:
                        probs.append(f"covered {report.covered} exceeds exact optimum {opt}")
            out.append(probs)
        return out

    def decompose(self, graphs, p: Pass) -> list[str]:
        jobs: dict[int, list] = {i: [] for i in range(len(graphs))}
        for (label, rec), payload in zip(p.ops, p.payloads):
            if label == "solve":
                i, c, a, algo = rec[:4]
                config = SolverConfig(ProblemParams(c, a), seed=self.specs[i].seed)
                jobs[i].append((algo, config, payload[5].covered))
        problems: list[str] = []
        for i, graph in enumerate(graphs):
            seed = self.specs[i].seed
            problems += trace_graph(self.tracer, graph, ProblemParams(*self.CELLS[0]), seed)
            problems += trace_solves(self.tracer, graph, jobs[i], call_solve=False)
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Bulk, Files, Certify)}
