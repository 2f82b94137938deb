"""Seeded sweep harness: generate, solve, score, and emit CSV / plot data.

One run walks ``trials`` trials; trial ``t`` derives its seed as
``mix_seed(base_seed, t)`` and uses it for both the instance and the solvers
(role-separated streams keep the two decorrelated).  Each trial's instance is
solved once per (c, a) sweep cell and algorithm, producing one row.  Rows come
out in deterministic (trial, cell, algorithm) order, so a run with
``measure_time=False`` is byte-reproducible end to end; with timing enabled
everything except the elapsed-ms column still is.
"""
from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass
from pathlib import Path

from .generate import MODEL_PARAMS, _check_model_params, generate_instance
from .graph import ProblemParams
from .io import read_edge_list
from .solvers import ALGORITHMS, SolverConfig, solve

__all__ = [
    "CSV_HEADER",
    "MODELS",
    "ExperimentSpec",
    "ExperimentRow",
    "CellAggregate",
    "mix_seed",
    "run_experiment",
    "aggregate_rows",
    "emit_csv",
    "emit_plotdata",
]

CSV_HEADER = "model,l,r,d_or_p,c,a,algo,trial,seed,covered,upper_bound,ratio,elapsed_ms"
MODELS = (*MODEL_PARAMS, "file")

_MASK64 = (1 << 64) - 1


def mix_seed(base_seed: int, n: int) -> int:
    """Per-trial seed derivation: SplitMix64 finalizer of ``base + n*phi64``."""
    z = (base_seed + (n + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one sweep needs; flags beat spec files beat defaults."""

    model: str
    sweep: tuple[tuple[int, int], ...]  # (c, a) cells
    l: int | None = None
    r: int | None = None
    d: int | None = None
    p: float | None = None
    path: str | None = None
    algos: tuple[str, ...] = ("sampling", "greedy")
    trials: int = 1
    base_seed: int = 0
    epsilon: float = 0.1
    measure_time: bool = True

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if not self.sweep:
            raise ValueError("sweep must name at least one (c, a) cell")
        for cell in self.sweep:
            c, a = cell
            ProblemParams(c=int(c), a=int(a))
        if not self.algos:
            raise ValueError("need at least one algorithm")
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.model == "file":
            if not self.path:
                raise ValueError("file model needs path")
        else:
            _check_model_params(self.model, l=self.l, r=self.r, d=self.d, p=self.p)

    @property
    def d_or_p(self) -> str:
        if self.model == "fixed-degree":
            return str(self.d)
        if self.model == "erdos-renyi":
            return repr(self.p)
        return "-"

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentSpec":
        """Build from a JSON-style dict; ``c_range``+``a`` expands to a sweep."""
        data = dict(data)
        if "sweep" in data:
            data["sweep"] = tuple((int(c), int(a)) for c, a in data["sweep"])
        elif "c_range" in data:
            lo, hi = data.pop("c_range")
            a = int(data.pop("a", 1))
            data["sweep"] = tuple((c, a) for c in range(int(lo), int(hi) + 1))
        if "algos" in data:
            data["algos"] = tuple(data["algos"])
        return cls(**data)


@dataclass
class ExperimentRow:
    """One solve.  ``skip_reason`` marks cells that cannot run (kept in the
    row stream so the record is complete; their measurement fields are empty
    in CSV)."""

    model: str
    l: int
    r: int
    d_or_p: str
    c: int
    a: int
    algo: str
    trial: int
    seed: int
    covered: int | None
    upper_bound: int | None
    ratio: float | None
    elapsed_ms: float | None
    skip_reason: str | None = None
    flagged: bool = False  # covered exceeded the upper bound (never expected)

    def csv_line(self) -> str:
        meas = (
            ("", "", "", "")
            if self.skip_reason is not None
            else (
                str(self.covered),
                str(self.upper_bound),
                repr(self.ratio),
                repr(self.elapsed_ms),
            )
        )
        return ",".join(
            (
                self.model,
                str(self.l),
                str(self.r),
                self.d_or_p,
                str(self.c),
                str(self.a),
                self.algo,
                str(self.trial),
                str(self.seed),
                *meas,
            )
        )


@dataclass
class CellAggregate:
    """Per-(c, a, algo) summary over trials."""

    c: int
    a: int
    algo: str
    n: int
    mean_ratio: float
    std_ratio: float
    stderr_ratio: float
    mean_covered: float
    mean_elapsed_ms: float


def run_experiment(
    spec: ExperimentSpec,
) -> tuple[list[ExperimentRow], list[CellAggregate]]:
    """Run the sweep; returns all rows plus per-cell aggregates.

    Cells an algorithm cannot run (partition with a > c) become skipped rows
    and the sweep continues.  Timing covers the solve call only; instance
    generation and I/O are excluded.
    """
    file_graph = read_edge_list(spec.path) if spec.model == "file" else None
    rows: list[ExperimentRow] = []
    for trial in range(spec.trials):
        seed = mix_seed(spec.base_seed, trial)
        graph = (
            file_graph
            if file_graph is not None
            else generate_instance(spec.model, seed, l=spec.l, r=spec.r, d=spec.d, p=spec.p)
        )
        for c, a in spec.sweep:
            params = ProblemParams(c=c, a=a)
            for algo in spec.algos:
                base = dict(
                    model=spec.model,
                    l=graph.l,
                    r=graph.r,
                    d_or_p=spec.d_or_p,
                    c=c,
                    a=a,
                    algo=algo,
                    trial=trial,
                    seed=seed,
                )
                if algo == "partition" and a > c:
                    rows.append(
                        ExperimentRow(
                            **base,
                            covered=None,
                            upper_bound=None,
                            ratio=None,
                            elapsed_ms=None,
                            skip_reason="partition requires a <= c",
                        )
                    )
                    continue
                config = SolverConfig(params=params, seed=seed, epsilon=spec.epsilon)
                _, report = solve(graph, algo, config)
                flagged = report.covered > report.upper_bound
                if flagged:
                    warnings.warn(
                        f"coverage {report.covered} exceeds upper bound "
                        f"{report.upper_bound} at c={c}, a={a}, {algo}",
                        stacklevel=2,
                    )
                rows.append(
                    ExperimentRow(
                        **base,
                        covered=report.covered,
                        upper_bound=report.upper_bound,
                        ratio=report.ratio,
                        elapsed_ms=report.elapsed_ms if spec.measure_time else 0.0,
                        flagged=flagged,
                    )
                )
    return rows, aggregate_rows(rows)


def aggregate_rows(rows: list[ExperimentRow]) -> list[CellAggregate]:
    """Mean / sample stddev / stderr of ratio per cell (skipped rows excluded)."""
    cells: dict[tuple[int, int, str], list[ExperimentRow]] = {}
    order: list[tuple[int, int, str]] = []
    for row in rows:
        if row.skip_reason is not None:
            continue
        key = (row.c, row.a, row.algo)
        if key not in cells:
            cells[key] = []
            order.append(key)
        cells[key].append(row)
    out = []
    for key in order:
        got = cells[key]
        ratios = [row.ratio for row in got]
        n = len(got)
        std = statistics.stdev(ratios) if n > 1 else 0.0
        out.append(
            CellAggregate(
                c=key[0],
                a=key[1],
                algo=key[2],
                n=n,
                mean_ratio=statistics.fmean(ratios),
                std_ratio=std,
                stderr_ratio=std / math.sqrt(n) if n else 0.0,
                mean_covered=statistics.fmean(row.covered for row in got),
                mean_elapsed_ms=statistics.fmean(row.elapsed_ms for row in got),
            )
        )
    return out


def emit_csv(rows: list[ExperimentRow], path) -> None:
    """Write the pinned-header CSV; floats use repr so bytes are stable."""
    lines = [CSV_HEADER]
    lines.extend(row.csv_line() for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_plotdata(aggregates: list[CellAggregate], path) -> None:
    """Write per-algorithm (mean, stderr) columns against c, one file per a.

    With a single ``a`` in the aggregates the file lands at ``path``;
    otherwise each gets ``path`` with ``.a<value>`` before the suffix.
    Missing cells print ``nan`` so column positions never shift.
    """
    path = Path(path)
    a_values = sorted({agg.a for agg in aggregates})
    for a in a_values:
        subset = [agg for agg in aggregates if agg.a == a]
        algos = list(dict.fromkeys(agg.algo for agg in subset))
        cs = sorted({agg.c for agg in subset})
        by_key = {(agg.c, agg.algo): agg for agg in subset}
        header = "# c " + " ".join(f"mean_{x} stderr_{x}" for x in algos)
        lines = [header]
        for c in cs:
            cols = [str(c)]
            for algo in algos:
                agg = by_key.get((c, algo))
                if agg is None:
                    cols += ["nan", "nan"]
                else:
                    cols += [repr(agg.mean_ratio), repr(agg.stderr_ratio)]
            lines.append(" ".join(cols))
        if len(a_values) == 1:
            target = path
        else:
            target = path.with_name(f"{path.stem}.a{a}{path.suffix}")
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
