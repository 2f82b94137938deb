"""The three selection strategies: uniform sampling, capacity-aware greedy,
and window matching.

* ``sampling``   — every source keeps a uniform ``c``-subset of its candidates;
  one pass over the edges, constant auxiliary state per source.
* ``greedy``     — targets are processed in input order; a target is covered
  the moment ``a`` sources with spare budget point at it, and takes the ``a``
  that have spent least (ties by index).  One counter per source, no
  randomness.  It has two engines with identical output: a Python loop over
  the targets and, from ``_WAVES_MIN_EDGES`` distinct edges,
  ``_waves.greedy_waves``, which decides in numpy each wave of targets that
  share no source.
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

from .bounds import _score
from .generate import STREAM_PARTITION, STREAM_SAMPLING, philox_stream
from .graph import (
    BipartiteGraph,
    CoverageReport,
    ProblemParams,
    RecSubgraph,
    _by_target,
    _check_int,
    _check_real,
    _csr,
    _distinct_sorted,
    _segments,
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

# Distinct edge count from which greedy decides its targets in waves.  Below
# it the per-wave numpy calls cost more than the Python loop they replace:
# at 50 000 edges the waves took 0.8-1.3x the loop's time, at 75 000 they
# were faster or level on every graph measured (table in CHANGES.md).
_WAVES_MIN_EDGES = 75_000


class ConfigError(ValueError):
    """A solver configuration that cannot be run."""


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs; a field of the wrong type or range raises
    ``ConfigError``.

    ``params`` must be a ``ProblemParams``.  ``seed`` keys the random streams
    of sampling and partition; greedy is deterministic and ignores it.  It
    must be an ``int`` in ``[0, 2**64)``.  ``epsilon`` only matters to the
    partition strategy (depth cap of its window matchings); it must be an
    ``int`` or ``float``, not a ``bool``, in ``(0, 1]``.
    """

    params: ProblemParams
    seed: int = 0
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if not isinstance(self.params, ProblemParams):
            raise ConfigError(f"params must be a ProblemParams, got {self.params!r}")
        _check_int("seed", self.seed, 0, 1 << 64, ConfigError)
        _check_real("epsilon", self.epsilon, ConfigError)
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in (0, 1], got {self.epsilon}")


@dataclass
class SolveStats:
    """Instrumented cost counters.

    ``edges_touched`` counts candidate-edge inspections (greedy counts every
    candidate edge once, parallel edges included); ``peak_aux`` counts
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

    One stable int64 sort ranks each source's candidates by the top
    ``min(53, 63 - max(l - 1, 1).bit_length())`` bits of their keys: at least
    32, all 53 for ``l <= 1024``.  Keys that agree in those bits keep edge order.
    """
    c = config.params.c
    deg = graph.left_degrees
    rng = philox_stream(config.seed, STREAM_SAMPLING)
    order = _by_source_then_key(graph.edge_u, rng.random(graph.m), graph.l)
    # The first min(degree, c) sorted positions of every source.
    pos = _segments(graph.indptr_l[:-1], np.minimum(deg, c))
    picks = _distinct_sorted(np.sort(graph.edge_keys()[order[pos]]))
    stats = SolveStats(edges_touched=graph.m, peak_aux=min(c, int(deg.max(initial=0))))
    return RecSubgraph._from_keys(graph.l, graph.r, picks), stats


def _by_source_then_key(edge_u: np.ndarray, keys: np.ndarray, l: int) -> np.ndarray:
    """Stable argsort of ``edge_u << shift | top key bits``; overwrites ``keys``.

    Philox ``keys`` are multiples of ``2**-53``, so a power-of-two scale and a
    truncation keep exactly their top ``min(53, shift)`` bits; ``edge_u < l``.
    """
    shift = 63 - max(l - 1, 1).bit_length()
    keys *= 2.0 ** min(53, shift)
    rank_key = keys.astype(np.int64)
    del keys
    rank_key |= edge_u << shift
    return np.argsort(rank_key, kind="stable")


# -- greedy -------------------------------------------------------------------


def greedy_with_stats(
    graph: BipartiteGraph, config: SolverConfig
) -> tuple[RecSubgraph, SolveStats]:
    """One pass over targets in input order, covering each as soon as ``a``
    budgets allow.

    A target with at least ``a`` distinct candidate sources that still have
    spare budget gets exactly ``a`` links, to the spare sources that have
    spent least so far, ties by index; anything less leaves it untouched, so
    selected in-degrees are always 0 or ``a``.  ``config.seed`` plays no part.

    Graphs with fewer than ``_WAVES_MIN_EDGES`` distinct edges run the pass
    as a Python loop, one target at a time.  Larger ones run it in
    ``_waves.greedy_waves``, imported on first use, which decides together
    all targets that share no spare source with an earlier undecided
    target; the selection is the same.
    """
    c = config.params.c
    a = config.params.a
    stats = SolveStats(edges_touched=graph.m, peak_aux=graph.l)
    if graph.distinct_keys().size >= _WAVES_MIN_EDGES:
        # Imported on first use, like the layered matching engine: a process
        # that never solves a large graph need not compile it.
        from ._waves import greedy_waves

        keys = greedy_waves(graph, c, a)
    else:
        offsets, sources = (x.tolist() for x in _by_target(graph))
        used = [0] * graph.l  # budget spent per source — the whole persistent state
        picks: list[int] = []
        for v in range(graph.r):
            spare = [u for u in sources[offsets[v] : offsets[v + 1]] if used[u] < c]
            if len(spare) < a:
                continue
            if len(spare) > a:
                # Stable on an ascending list, so equal budgets keep index order.
                spare.sort(key=used.__getitem__)
            for u in spare[:a]:
                used[u] += 1
                picks.append(u * graph.r + v)
        keys = np.sort(np.array(picks, dtype=np.int64))
    return RecSubgraph._from_keys(graph.l, graph.r, keys), stats


# -- partition ----------------------------------------------------------------


def partition_with_stats(
    graph: BipartiteGraph, config: SolverConfig
) -> tuple[RecSubgraph, SolveStats]:
    """Window-matching strategy; requires ``a <= c`` and ``c * l < 2**31``.

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

    All ``c`` windows go to ``matching._match`` in one call, which matches
    each as if alone; their sources in all, ``c * l``, pick its engine.
    """
    c = config.params.c
    a = config.params.a
    if a > c:
        raise ConfigError(f"partition requires a <= c, got a={a}, c={c}")
    # c windows of l sources: the layered engine numbers them in int32, and
    # the layout below takes O(c * l) memory whatever the graph's size.
    if c * graph.l >= 1 << 31:
        raise ConfigError(f"partition needs c * l < 2**31, got c={c}, l={graph.l}")
    n_prime = min(graph.r, (graph.l * c) // a)
    if n_prime == 0:  # l == 0 or r == 0: no window can be laid out
        stats = SolveStats(edges_touched=graph.m, peak_aux=0)
        return RecSubgraph._from_keys(graph.l, graph.r, np.empty(0, dtype=np.int64)), stats

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
    win_indptr, _, win_ids = _csr(np.sort(mem_pos * c + mem_win), n_prime, c)
    win_count = np.diff(win_indptr)

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
    keys = _distinct_sorted(np.sort((ewin * graph.l + eu) * wsize + elocal))
    # ml[i*l + u]: the partner of source u in window i, numbered from i*wsize.
    ml, _, _, _, scans = _match(keys, graph.l, wsize, max_path_len, c)
    matched = np.flatnonzero(ml >= 0)
    win, u = np.divmod(matched, graph.l)
    v = sample[(starts[win] + ml[matched] % wsize) % n_prime]
    # Parallel candidates can land the same (u, v) in two windows; keep one.
    sel_keys = _distinct_sorted(np.sort(u * graph.r + v))
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

    Times the solver call only (not validation or scoring), then checks the
    selection, degree cap included, and scores it in one ``bounds._score`` call.
    """
    if algo not in _WITH_STATS:
        raise ConfigError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    runner = _WITH_STATS[algo]
    t0 = time.perf_counter()
    sel, stats = runner(graph, config)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    prefix = f"{algo} produced an invalid selection: "
    covered, bound, ratio = _score(graph, sel, config.params, prefix=prefix)
    report = CoverageReport(
        covered=covered,
        upper_bound=bound,
        ratio=ratio,
        elapsed_ms=elapsed_ms,
        peak_edges_held=stats.peak_aux,
    )
    return sel, report
