"""The three selection strategies: uniform sampling, capacity-aware greedy,
and window matching.

* ``sampling``   — every source keeps a uniform ``c``-subset of its candidates;
  one pass over the edges, constant auxiliary state per source.
* ``greedy``     — targets are processed in order; a target is covered the
  moment ``a`` sources with spare budget point at it.  One counter per source.
* ``partition``  — targets are arranged into ``c`` overlapping index windows,
  every candidate edge is dropped into one window it is eligible for, and each
  window is solved as a depth-capped matching; the union of the ``c``
  matchings is the selection.

All three emit selections that satisfy the per-source budget and never invent
edges; ``solve`` is the timed, validating entry point used by the harness.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import upper_bound_estimate
from .generate import (
    STREAM_GREEDY,
    STREAM_PARTITION,
    STREAM_SAMPLING,
    philox_stream,
)
from .graph import (
    BipartiteGraph,
    CoverageReport,
    ProblemParams,
    RecSubgraph,
    SubgraphValidationError,
    _count_covered,
    _distinct_sorted,
    validate,
)
from .matching import _match

__all__ = [
    "ConfigError",
    "SolverConfig",
    "SolveStats",
    "ALGORITHMS",
    "solve",
    "sampling_with_stats",
    "greedy_with_stats",
    "partition_with_stats",
]

ALGORITHMS = ("sampling", "greedy", "partition")

GREEDY_ORDERS = ("input-order", "random-permutation")
GREEDY_TIEBREAKS = ("most-capacity-first", "input-order")


class ConfigError(ValueError):
    """A solver configuration that cannot be run."""


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs.

    ``epsilon`` only matters to the partition strategy (depth cap of its
    window matchings).  ``greedy_order`` picks the target processing order;
    ``greedy_tiebreak`` picks which sources serve a coverable target — by
    default the ones with the most remaining budget (ties by index), which
    keeps future options open; ``input-order`` keeps plain candidate order
    and reproduces the classic adversarial instances.
    """

    params: ProblemParams
    seed: int = 0
    epsilon: float = 0.1
    greedy_order: str = "input-order"
    greedy_tiebreak: str = "most-capacity-first"

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.greedy_order not in GREEDY_ORDERS:
            raise ConfigError(f"unknown greedy_order {self.greedy_order!r}")
        if self.greedy_tiebreak not in GREEDY_TIEBREAKS:
            raise ConfigError(f"unknown greedy_tiebreak {self.greedy_tiebreak!r}")


@dataclass
class SolveStats:
    """Instrumented cost counters.

    ``edges_touched`` counts candidate-edge inspections; ``peak_aux`` counts
    the auxiliary working-set entries held across the scan (excluding input,
    output, and per-item transients): the ``c``-slot selection buffer for
    sampling, one budget counter per source for greedy, and the edge
    assignment table for partition.
    """

    edges_touched: int = 0
    peak_aux: int = 0


# -- sampling ---------------------------------------------------------------


def sampling_with_stats(
    graph: BipartiteGraph, config: SolverConfig
) -> tuple[RecSubgraph, SolveStats]:
    """Uniform ``c``-subset per source, plus cost counters.

    Every candidate edge receives an independent random key and each source
    keeps its ``c`` smallest-keyed candidates — exactly a uniform sample
    without replacement from its candidate list.  Parallel candidates can
    collide on the same target; the duplicate picks are wasted (dropped), as
    the sampling analysis assumes.
    """
    c = config.params.c
    m = graph.m
    rng = philox_stream(config.seed, STREAM_SAMPLING)
    keys = rng.random(m)
    # edge_u is already sorted; the stable lexsort orders each source's
    # segment by key without mixing segments.
    order = np.lexsort((keys, graph.edge_u))
    rank = np.arange(m, dtype=np.int64) - np.repeat(
        graph.indptr_l[:-1], graph.left_degrees
    )
    picks = _distinct_sorted(np.sort(graph.edge_keys()[order[rank < c]]))
    stats = SolveStats(edges_touched=m, peak_aux=min(c, int(graph.left_degrees.max(initial=0))))
    return RecSubgraph._from_keys(graph.l, graph.r, picks), stats


# -- greedy -------------------------------------------------------------------


def greedy_with_stats(
    graph: BipartiteGraph, config: SolverConfig
) -> tuple[RecSubgraph, SolveStats]:
    """One pass over targets, covering each as soon as ``a`` budgets allow.

    A target with at least ``a`` distinct candidate sources that still have
    spare budget gets exactly ``a`` links; anything less leaves it untouched,
    so selected in-degrees are always 0 or ``a``.
    """
    c = config.params.c
    a = config.params.a
    if config.greedy_order == "random-permutation":
        order = philox_stream(config.seed, STREAM_GREEDY).permutation(graph.r).tolist()
    else:
        order = range(graph.r)
    by_capacity = config.greedy_tiebreak == "most-capacity-first"

    sources = graph.rev_u.tolist()
    offsets = graph.indptr_r.tolist()
    used = [0] * graph.l  # budget spent per source — the whole persistent state
    out_u: list[int] = []
    out_v: list[int] = []
    touched = 0
    for v in order:
        start = offsets[v]
        end = offsets[v + 1]
        touched += end - start
        spare: list[int] = []
        prev = -1
        for j in range(start, end):
            u = sources[j]
            if u != prev:  # candidates are sorted, so parallels are adjacent
                prev = u
                if used[u] < c:
                    spare.append(u)
        if len(spare) < a:
            continue
        if by_capacity and len(spare) > a:
            # Stable on an ascending list, so equal budgets keep index order.
            spare.sort(key=used.__getitem__)
        for u in spare[:a]:
            used[u] += 1
            out_u.append(u)
            out_v.append(v)
    sel = RecSubgraph.from_edges(
        graph.l,
        graph.r,
        np.asarray(out_u, dtype=np.int64),
        np.asarray(out_v, dtype=np.int64),
    )
    return sel, SolveStats(edges_touched=touched, peak_aux=graph.l)


# -- partition ----------------------------------------------------------------


def partition_with_stats(
    graph: BipartiteGraph, config: SolverConfig
) -> tuple[RecSubgraph, SolveStats]:
    """Window-matching strategy; requires ``a <= c``.

    A random sample R' of ``min(r, floor(l*c/a))`` targets is enumerated in
    random order and covered by ``c`` index windows of ``min(l, |R'|)``
    consecutive positions, window starts ``floor(l/a)`` apart, wrapping
    modulo |R'| — so each position falls in about ``a`` windows.  Every
    candidate edge is assigned uniformly to one window containing its target,
    each window is solved as a depth-capped matching (no augmenting path
    longer than ``2*ceil(c/eps) - 1``), and the union of the ``c`` matchings
    is the selection.

    When ``c - 1`` strides plus one window fall short of |R'|, the last
    positions of R' lie in no window, and edges to them are dropped along with
    the edges outside R'.  Whenever every position is covered, which includes
    every ``a == 1`` case, nothing more is dropped.
    """
    c = config.params.c
    a = config.params.a
    if a > c:
        raise ConfigError(f"partition requires a <= c, got a={a}, c={c}")
    n_prime = min(graph.r, (graph.l * c) // a)
    if n_prime == 0:  # l == 0 or r == 0: no window can be laid out
        stats = SolveStats(edges_touched=graph.m, peak_aux=0)
        return RecSubgraph.from_edges(graph.l, graph.r, [], []), stats

    rng = philox_stream(config.seed, STREAM_PARTITION)
    sample = rng.permutation(graph.r)[:n_prime].astype(np.int64)
    pos_of = np.full(graph.r, -1, dtype=np.int64)
    pos_of[sample] = np.arange(n_prime, dtype=np.int64)

    wsize = min(graph.l, n_prime)
    stride = max(1, graph.l // a)
    starts = (np.arange(c, dtype=np.int64) * stride) % n_prime

    # Window membership per position, as CSR keyed by position.
    mem_pos = ((starts[:, None] + np.arange(wsize, dtype=np.int64)[None, :]) % n_prime).ravel()
    mem_win = np.repeat(np.arange(c, dtype=np.int64), wsize)
    win_count = np.bincount(mem_pos, minlength=n_prime)
    mem_order = np.argsort(mem_pos, kind="stable")
    win_ids = mem_win[mem_order]
    win_indptr = np.zeros(n_prime + 1, dtype=np.int64)
    np.cumsum(win_count, out=win_indptr[1:])

    # Route each surviving edge into one eligible window, uniformly.  Edges to
    # a position in no window are dropped like those outside R'.
    pos_of[sample[win_count == 0]] = -1
    q = pos_of[graph.edge_v]
    keep = q >= 0
    eu = graph.edge_u[keep]
    eq = q[keep]
    n_opts = win_count[eq]
    pick = np.minimum((rng.random(eq.size) * n_opts).astype(np.int64), n_opts - 1)
    ewin = win_ids[win_indptr[eq] + pick]
    elocal = (eq - starts[ewin]) % n_prime  # < wsize by construction

    max_path_len = 2 * math.ceil(c / config.epsilon) - 1
    # One key space for all windows: window i owns [i*l*wsize, (i+1)*l*wsize).
    span = graph.l * wsize
    keys = _distinct_sorted(np.sort((ewin * graph.l + eu) * wsize + elocal))
    cuts = np.searchsorted(keys, np.arange(c + 1, dtype=np.int64) * span).tolist()
    out_u: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    scans = 0
    for i in range(c):
        window = keys[cuts[i] : cuts[i + 1]] - i * span
        matching, sc = _match(window, graph.l, wsize, max_path_len)
        scans += sc
        ml_arr = np.asarray(matching.match_l, dtype=np.int64)
        matched = np.flatnonzero(ml_arr >= 0)
        out_u.append(matched)
        out_v.append(sample[(starts[i] + ml_arr[matched]) % n_prime])
    sel_keys = np.concatenate(out_u) * graph.r + np.concatenate(out_v)
    # Parallel candidates can land the same (u, v) in two windows; keep one.
    sel_keys = _distinct_sorted(np.sort(sel_keys))
    stats = SolveStats(edges_touched=graph.m + scans, peak_aux=int(eq.size))
    return RecSubgraph._from_keys(graph.l, graph.r, sel_keys), stats


# -- dispatch -----------------------------------------------------------------

_WITH_STATS = {
    "sampling": sampling_with_stats,
    "greedy": greedy_with_stats,
    "partition": partition_with_stats,
}


def solve(
    graph: BipartiteGraph, algo: str, config: SolverConfig
) -> tuple[RecSubgraph, CoverageReport]:
    """Run one strategy and measure it.

    Times the solver call only (not validation or scoring), validates the
    selection once as an internal guard, and scores coverage against the cheap
    upper bound.  When the bound is 0 nothing is coverable, so an (inevitably)
    empty selection scores ratio 1.
    """
    if algo not in _WITH_STATS:
        raise ConfigError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    runner = _WITH_STATS[algo]
    t0 = time.perf_counter()
    sel, stats = runner(graph, config)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    problems = validate(graph, sel, config.params)
    if problems:
        raise SubgraphValidationError(f"{algo} produced an invalid selection: {problems[0]}")
    covered = _count_covered(sel, config.params.a)
    bound = upper_bound_estimate(graph, config.params)
    ratio = 1.0 if bound == 0 else covered / bound
    report = CoverageReport(
        covered=covered,
        upper_bound=bound,
        ratio=ratio,
        elapsed_ms=elapsed_ms,
        peak_edges_held=stats.peak_aux,
    )
    return sel, report
