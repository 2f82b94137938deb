#!/usr/bin/env python3
"""Benchmark for recsubgraph: four workloads, end-to-end and per-layer metrics.

Run from the repository root, against the package source in ``src/``::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

One run is one process and one closed loop: each call into the package
starts after the previous one returned, and the benchmark starts no threads.
The run repeats passes of its workload until ``--seconds`` of timed work are
done, checks the outputs, and prints

* a metric table and a ``{"report": ...}`` line with every figure that
  applies to the workload, the determinism digest and the environment;
* as the last line, ``{"correct", "attempted", "failed", "metrics"}``:
  the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
  ``--trace 1``.

``--trace 1`` alternates untraced and traced passes, records spans around
every call the benchmark makes into a layer, and writes them to
``.perfbench_out/<run id>.spans.jsonl``.  ``--size smoke`` shrinks every
input so that the whole benchmark runs in seconds.  See ``README.md`` here
for the workloads and what each metric should move.
"""
import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The loop is single-threaded; keep numeric libraries from starting pools.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Set-ups per run, at the least, by count and by summed time; their median
# is ``setup_s``.
MIN_SETUPS = 5
MIN_SETUP_S = 2.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_cal", "cal"),
    ("coverage_ratio.sampling", "ratio"),
    ("coverage_ratio.greedy", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Per-layer time metrics: the summed duration of the spans of one name in the
# traced iteration (one set-up, one pass and its decomposition).
SPAN_TIMES = (
    ("generate.fixed_degree_s", "generate.gen_fixed_degree"),
    ("generate.erdos_renyi_s", "generate.gen_erdos_renyi"),
    ("graph.build_s", "graph.BipartiteGraph"),
    ("graph.distinct_in_degrees_s", "graph.distinct_in_degrees"),
    ("bounds.upper_bound_first_s", "bounds.upper_bound_estimate.first"),
    ("bounds.upper_bound_cached_s", "bounds.upper_bound_estimate.cached"),
    ("graph.simplify_s", "graph.simplify"),
    ("graph.validate_s", "graph.validate"),
    ("graph.coverage_s", "graph.coverage"),
    ("solvers.sampling_s", "solvers.sampling_with_stats"),
    ("solvers.greedy_s", "solvers.greedy_with_stats"),
    ("solvers.partition_s", "solvers.partition_with_stats"),
    ("matching.hopcroft_karp_s", "matching.hopcroft_karp"),
    ("matching.bounded_s", "matching.bounded_matching"),
    ("oracle.exact_opt_s", "oracle.exact_opt"),
    ("io.read_edge_list_s", "io.read_edge_list"),
    ("io.write_edge_list_s", "io.write_edge_list"),
    ("io.read_subgraph_s", "io.read_subgraph"),
    ("io.write_subgraph_s", "io.write_subgraph"),
    ("cli.gen_s", "cli.gen"),
    ("cli.solve_s", "cli.solve"),
    ("cli.eval_s", "cli.eval"),
    ("cli.matching_s", "cli.matching"),
    ("experiment.run_s", "experiment.run_experiment"),
    ("experiment.emit_csv_s", "experiment.emit_csv"),
    ("experiment.emit_plotdata_s", "experiment.emit_plotdata"),
)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "bulk", "files", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def _fresh_import() -> None:
    """Import the package anew, as a new process would.

    numpy and the standard library stay loaded.  The original modules are put
    back afterwards, so the workloads keep calling the ones they imported.
    """
    saved = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "recsubgraph"}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("recsubgraph.cli")
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "recsubgraph"]:
            del sys.modules[name]
        sys.modules.update(saved)


def _setup(wl, tracer):
    """One set-up: the package import, then the inputs of one pass."""
    with tracer.span("import"):
        _fresh_import()
    return wl.setup()


def _timed_setup(wl, tracer):
    """One set-up on a freshly collected heap; returns (inputs, seconds).

    The collection runs untimed, so the benchmark's own garbage does not
    land in the set-up time.
    """
    gc.collect()
    inputs, seconds, _ = wl.clock("setup", _setup, wl, tracer)
    wl.clock.take()
    return inputs, seconds


def _loop(wl, args, tracer, tally):
    """Passes until the time is used; returns (set-up seconds, passes, traced spans).

    Each pass starts with its own set-up.  More set-ups, untraced and
    discarded, run between passes in step with the timed work, and after the
    last pass until there are MIN_SETUPS of them and they took MIN_SETUP_S in
    all.  So the set-ups sample the whole run, as the calibration does.
    """
    setups, passes = [], []
    first = None
    layer_span = None
    timed = 0.0
    i = 0

    def more_setups(until_s: float, until_n: int = 0) -> None:
        tracer.enabled = False
        while sum(setups) < until_s or len(setups) < until_n:
            inputs, seconds = _timed_setup(wl, tracer)
            del inputs
            setups.append(seconds)

    while True:
        more_setups(MIN_SETUP_S * min(timed / args.seconds, 1.0))
        traced = bool(args.trace) and i % 2 == 1
        tracer.enabled = traced
        with tracer.span("iteration", index=i) as it:
            inputs, seconds = _timed_setup(wl, tracer)
            setups.append(seconds)
            t0 = time.perf_counter()
            with tracer.span("pass") as pass_span:
                p = wl.run_pass(inputs)
            p.loop_s = time.perf_counter() - t0
            p.traced = traced
            with tracer.span("check"):
                if first is None:
                    problems = wl.check(inputs, p)
                elif len(p.ops) != len(first.ops):
                    problems = [["pass made a different number of calls"]] * len(p.ops)
                else:
                    problems = [
                        [] if op == ref else [f"differs from pass 0: {ref[1]!r}"]
                        for op, ref in zip(p.ops, first.ops)
                    ]
                for (label, record), probs in zip(p.ops, problems):
                    tally.record(f"pass {i} {label} {record!r}"[:160] if probs else label, probs)
            if traced and layer_span is None:
                with tracer.span("decompose"):
                    tally.record("decompose", wl.decompose(inputs, p))
                layer_span = (it, pass_span)
        del inputs
        p.payloads = []
        if first is None:
            first = p
        else:
            p.drop_records()
        passes.append(p)
        timed += p.wall_s
        i += 1
        if timed >= args.seconds and (not args.trace or i >= 2):
            break
    more_setups(MIN_SETUP_S, MIN_SETUPS)
    wl.clock.finish()
    return setups, passes, layer_span


def _end_to_end(setups, passes, clock):
    """Every figure the workload supports, as ``name -> (value, unit)``."""
    first = passes[0]
    cal = clock.cal_seconds
    out = {
        "setup_s": (clock.ref_seconds(_median(setups)), "s"),
        "setup_raw_s": (_median(setups), "s"),
        "wall_s": (_median([p.wall_s for p in passes]), "s"),
        "wall_cal": (_median([sum(cal(s, pt) for s, pt in p.calls) for p in passes]), "cal"),
        "cal_ms": (_median(clock.cal.points) * 1e3, "ms"),
    }
    for algo in first.solve_ms:
        samples = [ms for p in passes for ms, _ in p.solve_ms[algo]]
        if not samples:
            continue
        scaled = [cal(ms, pt) / 1e3 for p in passes for ms, pt in p.solve_ms[algo]]
        out[f"solve_cal.{algo}.p50"] = (statistics.median(scaled), "cal")
        out[f"solve_ms.{algo}.p50"] = (statistics.median(samples), "ms")
        out[f"solve_ms.{algo}.n"] = (len(samples), "count")
        # p90 only where at least ten samples lie beyond it.
        if len(samples) >= 100:
            out[f"solve_ms.{algo}.p90"] = (statistics.quantiles(samples, n=10)[-1], "ms")
    for algo in first.ratio:
        if first.ratio[algo]:
            out[f"coverage_ratio.{algo}"] = (statistics.fmean(first.ratio[algo]), "ratio")
    if first.opt_ratio:
        out["opt_ratio"] = (statistics.fmean(first.opt_ratio), "ratio")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return out


def _per_layer(tracer, layer_span, passes):
    it, pass_span = layer_span
    spans = tracer.descendants(it)

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def total(name, attr):
        return sum(sp.attrs.get(attr, 0) for sp in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {metric: (sum(sp.duration for sp in named(name)), "s") for metric, name in SPAN_TIMES}
    builds = named("graph.BipartiteGraph")
    out["graph.build_peak_mb"] = (max((sp.attrs.get("peak_mb", 0.0) for sp in builds), default=0.0), "MB")
    out["graph.parallel_edges"] = (total("graph.simplify", "parallel_edges"), "count")
    out["solvers.solve_overhead_s"] = (total("solvers.solve", "overhead_s"), "s")
    for algo in ("sampling", "greedy", "partition"):
        name = f"solvers.{algo}_with_stats"
        out[f"solvers.{algo}.edges_touched"] = (total(name, "edges_touched"), "count")
        out[f"solvers.{algo}.peak_aux"] = (max((sp.attrs["peak_aux"] for sp in named(name)), default=0), "count")
        out[f"solvers.{algo}.budget_used"] = (ratio(total(name, "n_selected"), total(name, "budget")), "ratio")
    scans = total("solvers.partition_with_stats", "matching_scans")
    out["matching.partition_scans"] = (scans, "count")
    out["matching.scans_per_s"] = (ratio(scans, out["solvers.partition_s"][0]), "1/s")
    out["matching.phases"] = (
        total("matching.hopcroft_karp", "phases") + total("matching.bounded_matching", "phases"), "count"
    )
    out["oracle.calls"] = (len(named("oracle.exact_opt")), "count")
    out["io.bytes_read"] = (total("io.read_edge_list", "bytes") + total("io.read_subgraph", "bytes"), "B")
    out["io.bytes_written"] = (total("io.write_edge_list", "bytes") + total("io.write_subgraph", "bytes"), "B")
    out["io.read_edges_per_s"] = (
        ratio(total("io.read_edge_list", "edges"), out["io.read_edge_list_s"][0]), "1/s"
    )
    out["experiment.rows"] = (total("experiment.run_experiment", "rows"), "count")
    traced = [p.loop_s for p in passes if p.traced]
    plain = [p.loop_s for p in passes if not p.traced]
    out["trace_overhead_s"] = (_median(traced) - _median(plain), "s")
    out["trace.unaccounted_s"] = (tracer.self_time(pass_span), "s")
    return out


def _self_times(tracer, layer_span):
    it, _ = layer_span
    kids = tracer.children()
    out: dict[str, float] = {}
    for sp in [it] + tracer.descendants(it):
        out[sp.name] = out.get(sp.name, 0.0) + tracer.self_time(sp, kids)
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "recsubgraph" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import recsubgraph

    if not Path(recsubgraph.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported recsubgraph from {recsubgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import verify
    from clock import Clock
    from spans import Tracer
    from workloads import SIZES, WORKLOADS

    import_s = time.perf_counter() - _T_START
    # The package keys its random streams with unsigned 64-bit words.
    seed = args.seed % (1 << 63)
    sizes = SIZES[args.size][args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=run_id + "-", dir=work_root))
    tracer = Tracer(run_id, enabled=bool(args.trace))
    tally = verify.Tally()
    wl = WORKLOADS[args.workload](sizes, seed, workdir, Clock(tracer))
    try:
        setups, passes, layer_span = _loop(wl, args, tracer, tally)
    except Exception as exc:  # report the failure as a failed run, not a crash
        traceback.print_exc()
        tally.record("run", [repr(exc)])
        print(json.dumps({"correct": False, "attempted": tally.attempted, "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.rmdir()

    figures = _end_to_end(setups, passes, wl.clock)
    figures["error_rate"] = (tally.failed / tally.attempted, "ratio")
    report = {
        "workload": args.workload,
        "run_id": run_id,
        "trace": args.trace,
        "pass_wall_s": [p.wall_s for p in passes],
        "setups": len(setups),
        "import_s": import_s,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        "digest": _digest(passes[0]),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": _git_commit(),
            "seed": args.seed,
            "size": args.size,
            "sizes": sizes,
        },
    }
    if args.trace:
        metrics = _per_layer(tracer, layer_span, passes)
        report["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        report["self_s"] = _self_times(tracer, layer_span)
        spans_path = ROOT / ".perfbench_out" / f"{run_id}.spans.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {name: figures[name] for name, _ in END_TO_END}
    for name, (value, unit) in (metrics if args.trace else figures).items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _digest(first) -> str:
    """SHA-256 of the first pass's deterministic records."""
    blob = json.dumps([[label, list(record)] for label, record in first.ops], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
