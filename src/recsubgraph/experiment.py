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
import os
import statistics
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .generate import MODEL_PARAMS, _model_spec, generate_instance
from .graph import ProblemParams, _check_int
from .io import read_edge_list
from .solvers import ALGORITHMS, SolverConfig, _solve_cells

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
    """Everything one sweep needs, checked when built; flags beat spec files beat defaults."""

    model: str
    sweep: tuple[tuple[int, int], ...]  # (c, a) cells
    l: int | None = None
    r: int | None = None
    d: int | None = None
    p: float | None = None
    path: str | os.PathLike | None = None
    algos: tuple[str, ...] = ("sampling", "greedy")
    trials: int = 1
    base_seed: int = 0
    epsilon: float = 0.1
    measure_time: bool = True

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if not isinstance(self.sweep, tuple) or not self.sweep:
            raise ValueError(f"sweep must be a non-empty tuple of (c, a) cells, got {self.sweep!r}")
        for cell in self.sweep:
            if not isinstance(cell, tuple) or len(cell) != 2:
                raise ValueError(f"a sweep cell must be a (c, a) pair, got {cell!r}")
            SolverConfig(ProblemParams(*cell), epsilon=self.epsilon)  # checks cell and epsilon
        if not isinstance(self.algos, tuple) or not self.algos:
            raise ValueError(f"algos must be a non-empty tuple, got {self.algos!r}")
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        _check_int("trials", self.trials, 1, None, ValueError)
        _check_int("base_seed", self.base_seed, 0, 1 << 64, ValueError)
        if not isinstance(self.measure_time, bool):
            raise ValueError(f"measure_time must be a bool, got {self.measure_time!r}")
        if self.path is not None and not isinstance(self.path, str | os.PathLike):
            raise ValueError(f"path must be a str or os.PathLike, got {self.path!r}")
        if self.model == "file":
            if not self.path:
                raise ValueError("file model needs path")
        else:  # the model's spec checks l, r and d or p
            _model_spec(self.model, 0, l=self.l, r=self.r, d=self.d, p=self.p)

    @property
    def d_or_p(self) -> str:
        if self.model == "file":
            return "-"
        return repr(getattr(self, MODEL_PARAMS[self.model][-1]))

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentSpec":
        """Build from a JSON-style dict; ``c_range``+``a`` expands to a sweep.

        Raises ``ValueError`` unless ``data`` is a dict of the spec's fields,
        with ``c_range`` (and optionally ``a``) in place of ``sweep``.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a spec must be a mapping, got {type(data).__name__}")
        data = dict(data)
        if "c_range" in data and "sweep" not in data:
            c_range, a = data.pop("c_range"), data.pop("a", 1)
            if not isinstance(c_range, list | tuple) or len(c_range) != 2:
                raise ValueError(f"c_range must be a [c_min, c_max] pair, got {c_range!r}")
            for c in c_range:
                ProblemParams(c=c, a=a)
            data["sweep"] = tuple((c, a) for c in range(c_range[0], c_range[1] + 1))
        for key in ("sweep", "algos"):  # JSON arrays to tuples
            if isinstance(data.get(key), list):
                data[key] = tuple(tuple(x) if isinstance(x, list) else x for x in data[key])
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown or unused spec keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ValueError(f"spec needs {', '.join(missing)}")
        return cls(**data)


@dataclass
class ExperimentRow:
    """One solve.  ``skip_reason`` marks cells that cannot run (kept in the
    row stream so the record is complete; their measurement fields stay
    ``None``, empty in CSV)."""

    model: str
    l: int
    r: int
    d_or_p: str
    c: int
    a: int
    algo: str
    trial: int
    seed: int
    covered: int | None = None
    upper_bound: int | None = None
    ratio: float | None = None
    elapsed_ms: float | None = None
    skip_reason: str | None = None

    def csv_line(self) -> str:
        """Every field before ``skip_reason``, the last, in ``CSV_HEADER`` order."""
        values = (getattr(self, f.name) for f in fields(self)[:-1])
        return ",".join("" if x is None else str(x) for x in values)


@dataclass
class CellAggregate:
    """Per-(c, a, algo) summary over trials."""

    c: int
    a: int
    algo: str
    n: int
    mean_ratio: float
    stderr_ratio: float
    mean_covered: float


def run_experiment(
    spec: ExperimentSpec,
) -> tuple[list[ExperimentRow], list[CellAggregate]]:
    """Run the sweep; returns all rows plus per-cell aggregates.

    Cells an algorithm cannot run (partition with a > c) become skipped rows
    and the sweep continues.  A row's elapsed time is its solver's, without
    validation, scoring, instance generation or I/O.  A trial's cells of
    one algorithm go through ``solvers._solve_cells`` together: greedy cells
    share wave passes, and partition cells share ``_match`` calls, up to a
    size bound.  Each cell of one batch reports an equal share of its time.
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
        # Rows in (cell, algorithm) order, solved one algorithm at a time.
        table = [
            [
                ExperimentRow(spec.model, graph.l, graph.r, spec.d_or_p, c, a, algo, trial, seed)
                for algo in spec.algos
            ]
            for c, a in spec.sweep
        ]
        for k, algo in enumerate(spec.algos):
            todo = []
            for (c, a), cell_rows in zip(spec.sweep, table):
                if algo == "partition" and a > c:
                    cell_rows[k].skip_reason = "partition requires a <= c"
                else:
                    todo.append(cell_rows[k])
            configs = [
                SolverConfig(ProblemParams(c=row.c, a=row.a), seed=seed, epsilon=spec.epsilon)
                for row in todo
            ]
            for row, (_, report) in zip(todo, _solve_cells(graph, algo, configs)):
                row.covered = report.covered
                row.upper_bound = report.upper_bound
                row.ratio = report.ratio
                row.elapsed_ms = report.elapsed_ms if spec.measure_time else 0.0
        rows.extend(row for cell_rows in table for row in cell_rows)
    return rows, aggregate_rows(rows)


def aggregate_rows(rows: list[ExperimentRow]) -> list[CellAggregate]:
    """Mean and stderr of ratio, and mean coverage, per (c, a, algo) cell.

    Cells come in the order of their first row; skipped rows are excluded.
    """
    cells: dict[tuple[int, int, str], list[ExperimentRow]] = {}
    for row in rows:
        if row.skip_reason is None:
            cells.setdefault((row.c, row.a, row.algo), []).append(row)
    out = []
    for (c, a, algo), got in cells.items():
        ratios = [row.ratio for row in got]
        n = len(got)
        stderr = statistics.stdev(ratios) / math.sqrt(n) if n > 1 else 0.0
        mean_covered = statistics.fmean(row.covered for row in got)
        out.append(CellAggregate(c, a, algo, n, statistics.fmean(ratios), stderr, mean_covered))
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
    Missing cells print ``nan`` so column positions never shift.  With no
    aggregates at all (every cell skipped) ``path`` gets just the ``# c``
    header.
    """
    path = Path(path)
    if not aggregates:
        path.write_text("# c\n", encoding="utf-8")
        return
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
