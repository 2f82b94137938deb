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
edges.  ``_solve_cells`` runs all three, each through its ``_Runner``: it
packs consecutive cells into batches, times them, and checks and scores every
selection; ``solve`` is its batch of one.  Consecutive greedy cells share a
wave pass once their copies of the graph hold ``_WAVES_MIN_EDGES`` distinct
edges, consecutive partition cells share matching calls, and a sampling cell
is a batch of one.  The cells of one batch report equal shares of its time.
Repeated solves on one graph share what the graph keeps (see
``graph.BipartiteGraph``): greedy and the oracle read its by-target index,
8 bytes per distinct edge, and sampling its ranking for the last seed, 4 bytes
per edge.
"""
from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, NamedTuple

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
    return _with_stats(graph, "sampling", config)


def _sampling_keys(
    graph: BipartiteGraph, configs: list[SolverConfig]
) -> list[tuple[np.ndarray, int, int]]:
    """Sampling's batch step: the config's ascending ``u*r + v`` keys,
    ``edges_touched`` and ``peak_aux``; every sampling cell is a batch of one."""
    (config,) = configs
    c = config.params.c
    deg = graph.left_degrees
    order = _sampling_rank(graph, config.seed)
    # The first min(degree, c) sorted positions of every source.  take() and
    # the ufunc cost less than fancy indexing and ndarray.max.
    pos = _segments(graph.indptr_l[:-1], np.minimum(deg, c))
    picks = graph.edge_keys().take(order[pos])
    picks.sort()
    picks = _distinct_sorted(picks)
    return [(picks, graph.m, min(c, int(np.maximum.reduce(deg, initial=0))))]


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
    target; the selection is the same.  ``_solve_cells`` decides
    consecutive greedy cells together: a batch of cells whose copies of the
    graph hold ``_WAVES_MIN_EDGES`` distinct edges in all shares one wave
    pass, and each cell gets the selection it gets here.
    """
    return _with_stats(graph, "greedy", config)


# Entries of one wave pass's union of greedy cells, ``K*(l + r + m)`` for
# ``K`` cells on a graph of ``m`` distinct edges: the pass holds per-source,
# per-target and per-edge arrays of ``K*l``, ``K*r`` and ``K*m`` entries.
# The benchmark's sweep (20 cells on graphs of l=500, r=2000 and about
# 10 000 edges) needs about 2.5e5 to pass all of a trial's cells at once.
# On three such graphs that took 91 ms; batches of 10 cells took 122 ms,
# of 8 cells 137 ms, and the loop, cell by cell, 157 ms (best of 15).
_WAVES_BATCH_MAX = 1 << 18


def _greedy_keys(
    graph: BipartiteGraph, configs: list[SolverConfig]
) -> list[tuple[np.ndarray, int, int]]:
    """Greedy's batch step: each config's ascending ``u*r + v`` keys,
    ``edges_touched`` and ``peak_aux``.  One wave pass decides them all when
    their copies of the graph hold ``_WAVES_MIN_EDGES`` distinct edges in
    all, else the loop runs cell by cell."""
    cells = [(config.params.c, config.params.a) for config in configs]
    if len(cells) * graph.distinct_keys().size >= _WAVES_MIN_EDGES:
        # Imported on first use, like the layered matching engine: a process
        # that never solves a large graph need not compile it.
        from ._waves import greedy_waves

        found = greedy_waves(graph, cells)
    else:
        found = [_greedy_loop(graph, c, a) for c, a in cells]
    return [(keys, graph.m, graph.l) for keys in found]


def _greedy_loop(graph: BipartiteGraph, c: int, a: int) -> np.ndarray:
    """Ascending ``u*r + v`` keys of greedy's selection, one target at a time."""
    offsets, sources = (x.tolist() for x in _by_target(graph))
    used = [0] * graph.l  # budget spent per source — the whole persistent state
    picks: list[int] = []
    for v in range(graph.r):
        spare = []  # a loop, not a comprehension: cheaper at a few sources per target
        for u in sources[offsets[v] : offsets[v + 1]]:
            if used[u] < c:
                spare.append(u)
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
    cap is dropped, since no window path is that long.  ``_solve_cells``
    matches several cells' windows in one call, with the same result for
    each.
    """
    return _with_stats(graph, "partition", config)


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


def _match_batch(graph: BipartiteGraph, batch: list[_Cell]) -> list[tuple[np.ndarray, int, int]]:
    """Partition's batch step: match ``batch``'s windows in one ``_match``
    call and decode each cell's ascending ``u*r + v`` keys,
    ``edges_touched`` and ``peak_aux``.

    The cells become consecutive windows of one key space, each window at
    its own cell's cap; a lone cell is a batch of one, whose keys and slots
    need no shift.
    """
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
        out.append((_distinct_sorted(sel_keys), graph.m + sum(scans[at:end]), cell.kept))
    return out


# -- the runner ---------------------------------------------------------------


class _Runner(NamedTuple):
    """One strategy as ``_solve_cells`` runs it."""

    # A config's cell; None when the config is the cell.
    lay_out: Callable[[BipartiteGraph, SolverConfig], Any] | None
    # Whether a cell joins a batch of cells: its sizes summed with theirs stay
    # within their bounds, read at every call.
    fits: Callable[[BipartiteGraph, list[Any], Any], bool]
    # The batch step: each cell's ascending u*r + v keys, edges_touched and peak_aux.
    run: Callable[[BipartiteGraph, list[Any]], list[tuple[np.ndarray, int, int]]]


_RUNNERS = {
    "sampling": _Runner(None, lambda graph, cells, cell: False, _sampling_keys),
    "greedy": _Runner(
        None,
        lambda graph, cells, cell: (
            (len(cells) + 1) * (graph.l + graph.r + graph.distinct_keys().size) <= _WAVES_BATCH_MAX
        ),
        _greedy_keys,
    ),
    "partition": _Runner(
        _layout,
        lambda graph, cells, cell: (
            sum(x.keys.size for x in cells) + cell.keys.size <= _BATCH_MAX
            and (sum(x.windows for x in cells) + cell.windows) * graph.l <= _BATCH_MAX
        ),
        _match_batch,
    ),
}


def solve(
    graph: BipartiteGraph, algo: str, config: SolverConfig
) -> tuple[RecSubgraph, CoverageReport]:
    """Run one strategy and measure it.

    Times the strategy only (not validation or scoring), then checks the
    selection, degree cap included, and scores it in one ``bounds._score`` call.
    A ``config`` that is not a ``SolverConfig`` raises ``ConfigError``.
    """
    _check_type("config", config, SolverConfig, ConfigError)
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    (result,) = _solve_cells(graph, algo, [config])
    return result


def _solve_cells(
    graph: BipartiteGraph, algo: str, configs: list[SolverConfig]
) -> Iterator[tuple[RecSubgraph, CoverageReport]]:
    """``solve`` at each of ``configs`` in turn, in batches.

    Consecutive cells share one batch step while the strategy's ``fits``
    admits them.  A cell's layout is timed apart and charged to the batch it
    joins, also when it is laid out before the batch ahead of it runs.  The
    cells of a batch report equal shares of their layouts' time and its
    step's.
    """
    lay_out, fits, run = _RUNNERS[algo]
    prefix = f"{algo} produced an invalid selection: "
    batch: list[SolverConfig] = []  # the configs that share one batch step
    cells: list[Any] = []  # and their cells
    spent = 0.0  # milliseconds their layouts took
    for config in [*configs, None]:  # None ends the last batch
        cell, ms = config, 0.0
        if lay_out is not None and config is not None:
            t0 = time.perf_counter()
            cell = lay_out(graph, config)
            ms = (time.perf_counter() - t0) * 1e3
        if config is not None and (not cells or fits(graph, cells, cell)):
            batch.append(config)
            cells.append(cell)
            spent += ms
            continue
        if cells:
            t0 = time.perf_counter()
            found = _selections(graph, run(graph, cells))
            share = (spent + (time.perf_counter() - t0) * 1e3) / len(cells)
            # Only ``cells`` holds the batch's layouts: free them before the checks.
            cells.clear()
            for member, (sel, stats) in zip(batch, found):
                # Checked, degree cap included, and scored in one call.
                covered, bound, ratio = _score(graph, sel, member.params, prefix=prefix)
                yield sel, CoverageReport(covered, bound, ratio, share, stats.peak_aux)
        batch, cells, spent = [config], [cell], ms


def _with_stats(graph: BipartiteGraph, algo: str, config) -> tuple[RecSubgraph, SolveStats]:
    """``algo``'s selection and counters; a ``config`` that is not a
    ``SolverConfig`` raises ``ConfigError``, as in :func:`solve`."""
    _check_type("config", config, SolverConfig, ConfigError)
    lay_out, _, run = _RUNNERS[algo]
    cell = config if lay_out is None else lay_out(graph, config)
    return _selections(graph, run(graph, [cell]))[0]


def _selections(
    graph: BipartiteGraph, found: list[tuple[np.ndarray, int, int]]
) -> list[tuple[RecSubgraph, SolveStats]]:
    """A batch step's keys and counters as each cell's selection and stats."""
    out = []
    for keys, touched, aux in found:
        out.append((RecSubgraph._from_keys(graph.l, graph.r, keys), SolveStats(touched, aux)))
    return out
