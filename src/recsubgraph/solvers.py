"""The three selection strategies: uniform sampling, capacity-aware greedy,
and window matching.

* ``sampling``   — every source keeps a uniform ``c``-subset of its candidates,
  a prefix of one random ranking of them per seed; one pass over the edges,
  at most ``c`` picks held per source.
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
edges; ``solve`` is the timed, validating entry point.  Repeated solves on one
graph share what the graph keeps (see ``graph.BipartiteGraph``): greedy and
the oracle read its by-target index, 8 bytes per distinct edge, and sampling
its ranking for the last seed, 4 bytes per edge.  The harness solves a
trial's cells through ``_solve_cells``: consecutive greedy cells share a
wave pass once their copies of the graph hold ``_WAVES_MIN_EDGES`` distinct
edges, and consecutive partition cells share matching calls.  The cells of
one batch report equal shares of its time.
"""
from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

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
    _check_type,
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
        _check_type("params", self.params, ProblemParams, ConfigError)
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

    The keys depend on the seed alone, and every ``c`` keeps a prefix of the
    same ranking.  So the graph keeps the ranking of the last seed sampled,
    4 bytes per edge, and a call at that seed skips the draw and the sort.
    Apart from the ranking, a call holds only the ``c``-slot buffer that
    ``peak_aux`` counts.
    """
    c = config.params.c
    deg = graph.left_degrees
    order = _sampling_rank(graph, config.seed)
    # The first min(degree, c) sorted positions of every source.
    pos = _segments(graph.indptr_l[:-1], np.minimum(deg, c))
    picks = graph.edge_keys()[order[pos]]
    picks.sort()
    picks = _distinct_sorted(picks)
    stats = SolveStats(edges_touched=graph.m, peak_aux=min(c, int(deg.max(initial=0))))
    return RecSubgraph._from_keys(graph.l, graph.r, picks), stats


def _sampling_rank(graph: BipartiteGraph, seed: int) -> np.ndarray:
    """Edge positions by source, then by sampling key at ``seed``; read-only.

    Kept on the graph for the last seed asked, int32 while ``m < 2**31``.
    A new seed drops the kept ranking before drawing its own.
    """
    if graph._sampling_rank is None or graph._sampling_rank[0] != seed:
        graph._sampling_rank = None
        rng = philox_stream(seed, STREAM_SAMPLING)
        order = _by_source_then_key(graph.edge_u, rng.random(graph.m), graph.l)
        if graph.m < 1 << 31:
            order = order.astype(np.int32)
        order.flags.writeable = False
        graph._sampling_rank = (seed, order)
    return graph._sampling_rank[1]


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
    target; the selection is the same.  ``run_experiment`` decides a
    trial's greedy cells together (``_greedy``): a batch of cells whose
    copies of the graph hold ``_WAVES_MIN_EDGES`` distinct edges in all
    shares one wave pass, and each cell gets the selection it gets here.
    """
    # The batch of one that _greedy makes of a lone config, untimed.
    (keys,) = _greedy_keys(graph, [(config.params.c, config.params.a)])
    stats = SolveStats(edges_touched=graph.m, peak_aux=graph.l)
    return RecSubgraph._from_keys(graph.l, graph.r, keys), stats


# Entries of one wave pass's union of greedy cells, ``K*(l + r + m)`` for
# ``K`` cells on a graph of ``m`` distinct edges: the pass holds per-source,
# per-target and per-edge arrays of ``K*l``, ``K*r`` and ``K*m`` entries.
# The benchmark's sweep (20 cells on graphs of l=500, r=2000 and about
# 10 000 edges) needs about 2.5e5 to pass all of a trial's cells at once.
# On three such graphs that took 91 ms; batches of 10 cells took 122 ms,
# of 8 cells 137 ms, and the loop, cell by cell, 157 ms (best of 15).
_WAVES_BATCH_MAX = 1 << 18


def _greedy(
    graph: BipartiteGraph, configs: list[SolverConfig]
) -> Iterator[tuple[RecSubgraph, SolveStats, float]]:
    """Greedy on ``graph`` at each of ``configs`` in turn: the selection, its
    counters and the milliseconds it took.

    Every cell's copy of the graph is the same size, so consecutive cells
    form batches of as many as ``_WAVES_BATCH_MAX`` admits, at least one.
    The cells of one batch share its time equally.
    """
    k = max(1, _WAVES_BATCH_MAX // (graph.l + graph.r + graph.distinct_keys().size))
    for i in range(0, len(configs), k):
        batch = configs[i : i + k]
        t0 = time.perf_counter()
        found = _greedy_keys(graph, [(config.params.c, config.params.a) for config in batch])
        sels = [RecSubgraph._from_keys(graph.l, graph.r, keys) for keys in found]
        ms = (time.perf_counter() - t0) * 1e3 / len(batch)
        for sel in sels:
            yield sel, SolveStats(edges_touched=graph.m, peak_aux=graph.l), ms


def _greedy_keys(graph: BipartiteGraph, cells: list[tuple[int, int]]) -> list[np.ndarray]:
    """Ascending ``u*r + v`` keys of greedy's selection at each ``(c, a)`` of
    ``cells``: one wave pass when their copies of the graph hold
    ``_WAVES_MIN_EDGES`` distinct edges in all, else the loop, cell by cell."""
    if len(cells) * graph.distinct_keys().size >= _WAVES_MIN_EDGES:
        # Imported on first use, like the layered matching engine: a process
        # that never solves a large graph need not compile it.
        from ._waves import greedy_waves

        return greedy_waves(graph, cells)
    return [_greedy_loop(graph, c, a) for c, a in cells]


def _greedy_loop(graph: BipartiteGraph, c: int, a: int) -> np.ndarray:
    """Ascending ``u*r + v`` keys of greedy's selection, one target at a time."""
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
    keys = np.array(picks, dtype=np.int64)
    keys.sort()
    return keys


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

    The layout is one slot table: slot ``i*wsize + j`` is position ``j`` of
    window ``i``, and each target lists its slots in window order.  An edge
    draws one slot of its target, so it is kept iff that target has a slot.
    All ``c`` windows go to ``matching._match`` in one call, which matches
    each as if alone and numbers window ``i``'s right vertex ``j`` as
    ``i*wsize + j``: a matched partner is a slot.  Their sources in all,
    ``c * l``, pick the engine.  When ``c / eps`` overflows a float the depth
    cap is dropped, since no window path is that long.  The cell is a batch
    of one (``_match_batch``); ``run_experiment`` batches several cells'
    windows into one call (``_partition``), with the same result for each.
    """
    sel, stats, _ = _match_batch(graph, [_layout(graph, config)], 0.0)[0]
    return sel, stats


# Keys, and window sources, that one ``_match`` call may take from several
# partition cells; a cell with more of either is a batch of one.  On the
# benchmark's sweep (19 cells of 2 500-10 000 keys per graph) 2**14 cut its
# time by 9 %, 2**15 by 24 % and 2**16 by 30 %, for 6 % more peak memory.
# One call per graph cut 33 % but took 22 % more memory (table in
# CHANGES.md).
_BATCH_MAX = 1 << 16


class _Cell(NamedTuple):
    """One partition cell laid out for ``_match``: window ``i``'s source ``u``
    is left vertex ``i*l + u`` and its position ``j`` is slot
    ``i*wsize + j``, whose target is ``slot_v[i*wsize + j]``."""

    keys: np.ndarray  # ascending distinct (i*l + u)*wsize + j
    slot_v: np.ndarray
    wsize: int
    windows: int
    max_path_len: int | None
    kept: int  # edges routed to a window


def _partition(
    graph: BipartiteGraph, configs: list[SolverConfig]
) -> Iterator[tuple[RecSubgraph, SolveStats, float]]:
    """Partition on ``graph`` at each of ``configs`` in turn: the selection,
    its counters and the milliseconds it took.

    Each cell is laid out alone, then consecutive cells are matched together
    in one ``_match`` call as long as their keys, and their window sources,
    each stay within ``_BATCH_MAX``.  A cell with more of either is a batch
    of one, as every ``partition_with_stats`` cell is.  The cells of one
    batch share its time equally, and come out as soon as it is matched.
    """
    batch: list[_Cell] = []
    spent = 0.0
    for config in configs:
        t0 = time.perf_counter()
        cell = _layout(graph, config)
        ms = (time.perf_counter() - t0) * 1e3
        if batch and (
            sum(x.keys.size for x in batch) + cell.keys.size > _BATCH_MAX
            or sum(x.windows for x in batch) * graph.l + cell.windows * graph.l > _BATCH_MAX
        ):
            yield from _match_batch(graph, batch, spent)
            batch, spent = [], 0.0
        batch.append(cell)
        spent += ms
    if batch:
        yield from _match_batch(graph, batch, spent)


def _layout(graph: BipartiteGraph, config: SolverConfig) -> _Cell:
    """``partition_with_stats``' windows for ``config``, keyed for ``_match``."""
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
        empty = np.empty(0, dtype=np.int64)
        return _Cell(empty, empty, 0, 0, None, 0)

    rng = philox_stream(config.seed, STREAM_PARTITION)
    sample = rng.permutation(graph.r)[:n_prime]
    wsize = min(graph.l, n_prime)
    stride = max(1, graph.l // a)

    # Slot i*wsize + j is position j of window i; slot_v is its target.  The
    # stable sort lists each target's slots in window order.
    starts = np.arange(c, dtype=np.int64)[:, None] * stride
    slot_v = sample[(starts + np.arange(wsize)) % n_prime].ravel()
    slots = slot_v.argsort(kind="stable")
    n_slots = np.bincount(slot_v, minlength=graph.r)
    first = n_slots.cumsum() - n_slots

    # Route each edge to one of its target's slots, uniformly.  Edges to a
    # target outside R', or in no window, have none and are dropped.
    keep = n_slots[graph.edge_v] > 0
    eu = graph.edge_u[keep]
    ev = graph.edge_v[keep]
    n_opts = n_slots[ev]
    pick = np.minimum((rng.random(ev.size) * n_opts).astype(np.int64), n_opts - 1)
    ewin, elocal = np.divmod(slots[first[ev] + pick], wsize)

    cap = c / config.epsilon
    max_path_len = 2 * math.ceil(cap) - 1 if math.isfinite(cap) else None
    # One key space for all windows: window i owns [i*l*wsize, (i+1)*l*wsize).
    keys = (ewin * graph.l + eu) * wsize + elocal
    keys.sort()
    return _Cell(_distinct_sorted(keys), slot_v, wsize, c, max_path_len, int(ev.size))


def _match_batch(
    graph: BipartiteGraph, batch: list[_Cell], spent: float
) -> list[tuple[RecSubgraph, SolveStats, float]]:
    """Match ``batch``'s windows in one ``_match`` call and decode each cell;
    ``spent`` is the milliseconds its layouts took.

    The cells become consecutive windows of one key space, each window at
    its own cell's cap; a lone cell is a batch of one, whose keys and slots
    need no shift.
    """
    t0 = time.perf_counter()
    l = graph.l
    # a <= c puts min(l, r) positions in every window of every cell.
    wsize = batch[0].wsize
    offsets = list(accumulate((cell.windows for cell in batch), initial=0))
    if l and graph.r:
        # A cell whose windows follow ``at`` others' is shifted by ``at`` windows.
        keys = batch[0].keys
        if len(batch) > 1:
            keys = np.concatenate([cell.keys + at * l * wsize for cell, at in zip(batch, offsets)])
        caps = [(cell.max_path_len, cell.windows) for cell in batch]
        ml, _, _, _, scans = _match(keys, l, wsize, caps)
    else:  # l == 0 or r == 0: no cell has a window
        ml, scans = np.empty(0, dtype=np.int64), []
    out = []
    for cell, at, end in zip(batch, offsets, offsets[1:]):
        part = ml[at * l : end * l]
        matched = (part >= 0).nonzero()[0]
        slot = part[matched]
        if at:
            slot -= at * wsize
        sel_keys = matched % l * graph.r + cell.slot_v[slot]
        # Parallel candidates can land the same (u, v) in two windows; keep one.
        sel_keys.sort()
        sel_keys = _distinct_sorted(sel_keys)
        stats = SolveStats(edges_touched=graph.m + sum(scans[at:end]), peak_aux=cell.kept)
        out.append((RecSubgraph._from_keys(graph.l, graph.r, sel_keys), stats))
    ms = (spent + (time.perf_counter() - t0) * 1e3) / len(batch)
    return [(sel, stats, ms) for sel, stats in out]


# -- dispatch -----------------------------------------------------------------

_WITH_STATS = {
    "sampling": sampling_with_stats,
    "greedy": greedy_with_stats,
    "partition": partition_with_stats,
}
_BATCHED = {"greedy": _greedy, "partition": _partition}


def solve(
    graph: BipartiteGraph, algo: str, config: SolverConfig
) -> tuple[RecSubgraph, CoverageReport]:
    """Run one strategy and measure it.

    Times the solver call only (not validation or scoring), then checks the
    selection, degree cap included, and scores it in one ``bounds._score`` call.
    A ``config`` that is not a ``SolverConfig`` raises ``ConfigError``.
    """
    _check_type("config", config, SolverConfig, ConfigError)
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    runner = _WITH_STATS[algo]
    t0 = time.perf_counter()
    sel, stats = runner(graph, config)
    return sel, _report(graph, algo, config, sel, stats, (time.perf_counter() - t0) * 1e3)


def _solve_cells(
    graph: BipartiteGraph, algo: str, configs: list[SolverConfig]
) -> Iterator[tuple[RecSubgraph, CoverageReport]]:
    """``solve`` at each of ``configs`` in turn.  Greedy cells go through
    ``_greedy`` together, so they share its wave passes, and partition cells
    through ``_partition``, so they share its ``_match`` calls; the cells of
    one batch share its time."""
    if algo not in _BATCHED:
        for config in configs:
            yield solve(graph, algo, config)
        return
    for config, (sel, stats, elapsed_ms) in zip(configs, _BATCHED[algo](graph, configs)):
        yield sel, _report(graph, algo, config, sel, stats, elapsed_ms)


def _report(
    graph: BipartiteGraph,
    algo: str,
    config: SolverConfig,
    sel: RecSubgraph,
    stats: SolveStats,
    elapsed_ms: float,
) -> CoverageReport:
    """Check ``sel``, degree cap included, and score it in one ``bounds._score`` call."""
    prefix = f"{algo} produced an invalid selection: "
    covered, bound, ratio = _score(graph, sel, config.params, prefix=prefix)
    return CoverageReport(
        covered=covered,
        upper_bound=bound,
        ratio=ratio,
        elapsed_ms=elapsed_ms,
        peak_edges_held=stats.peak_aux,
    )
