"""Maximum and depth-capped bipartite matchings (Hopcroft–Karp family).

The depth-capped variant stops as soon as the shortest augmenting path would
exceed ``max_path_len`` edges; since a matching with no augmenting path
shorter than 2·alpha+1 is within a factor 1 - 1/alpha of maximum, the cap
trades quality for time in a controlled way.  ``max_path_len=1`` degenerates
to a maximal matching.

``_match`` is the one matching core.  It matches several disjoint
*windows* at once, each as if alone and each at its own depth cap, and
reports per window; one graph is one window.  Partition hands over a batch
of cells, each cell its ``c`` windows at the cell's cap: a lone ``solve``
is a batch of one, and ``run_experiment`` batches a trial's consecutive
cells up to ``solvers._BATCH_MAX`` keys and window sources.  Each phase
builds BFS layers, then runs the one augmenting walk, ``_augment``, a
Python DFS along them; the first phase's walk, from every left vertex at
layer 0, is a greedy pass that both engines run without it.  The two phase
engines take the whole window set in one call, number it alike, and give
the same partners and, per window, the same size, phases and scans.  They
differ in how they layer:

* the list engine, for window sets of fewer than ``_LAYERED_MIN`` sources in
  all: a Python BFS over adjacency lists, one window after another;
* the layered engine, from there on: a numpy BFS that keeps each layer and a
  backward numpy pass that marks the *alive* vertices (those with a layered
  path to a free right vertex); the walk starts from and enters only those.
  Its first phase's walk, a greedy pass over the roots, runs in numpy.  The
  windows share one phase loop, one numpy gather per layer, while each keeps
  its own found layer, walk and scans.

A *dead* vertex lies on no shortest augmenting path, so no edge into or out
of it flips during the phase.  When the list engine's walk reaches one, it
scans all of its entries, finds nothing and never enters it again.  The
layered engine skips those walks and adds, in numpy, the full degree of every
dead vertex the list engine would have walked, so ``scans`` does not change.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph, _check_int, _csr

__all__ = ["Matching", "hopcroft_karp", "bounded_matching"]

_INF = float("inf")

# Sources, over all windows of one call, from which phases run layered in
# numpy.  Below it the per-layer numpy calls cost more than the Python work
# they save.  On one window of 500 sources the layered engine took 1.4-3.5x
# the list engine's time; at 1000 it was faster on fixed-degree windows and
# whole graphs, and slower only on sparse Erdos-Renyi partition windows,
# which cross over near 2500 (table in CHANGES.md).  On the sweep's window
# sets (c windows of 500 sources) one layered call was faster in every
# (c, a) cell but the sparse (2,2) and (3,2) ones (figures in CHANGES.md).
_LAYERED_MIN = 1000


@dataclass
class Matching:
    """Mutual-inverse partner arrays: ``match_l[u] == v`` iff ``match_r[v] == u``."""

    match_l: list[int]  # partner of each left vertex, -1 when unmatched
    match_r: list[int]
    size: int
    phases: int  # BFS/augment rounds executed


def _match(
    keys: np.ndarray,
    n_left: int,
    n_right: int,
    caps: Sequence[tuple[int | None, int]] = ((None, 1),),
) -> tuple[np.ndarray, np.ndarray, list[int], list[int], list[int]]:
    """Layered augmentation on disjoint windows, each as if alone.

    ``caps`` holds one ``(max_path_len, windows)`` pair per run of
    consecutive windows that share a depth cap: one pair per partition cell,
    or ``((max_path_len, 1),)`` for one graph.  Window ``w`` owns left
    vertices ``w*n_left + u`` and right vertices ``w*n_right + v``; ``keys``
    are the ascending distinct ``(w*n_left + u)*n_right + v`` (parallel edges
    add nothing to a matching).  Returns every left and right vertex's
    partner (-1 when free), and per window its size, phases and scans, each
    what a one-window call with that window's cap returns.  With
    ``max_path_len=None`` a window gets Hopcroft–Karp; otherwise its
    augmentation stops once its shortest augmenting path exceeds the cap.

    Each phase is a BFS from every free left vertex, which stops scanning
    after the first vertex of the shallowest layer that reaches a free right
    vertex, then a DFS from each free left vertex in index order along
    shortest layers only.  A scan is one adjacency entry read by either.
    All windows run in one engine call, with one depth cap per window:
    ``_layered.match_layered`` from ``_LAYERED_MIN`` window sources in all,
    else ``_list_match``.
    """
    depth_cap = [d for x, n in caps for d in [_depth_cap(x)] * n]
    # The layered engine's positions and vertices are int32.
    if _LAYERED_MIN <= len(depth_cap) * n_left < 2**31 and keys.size < 2**31:
        # Imported on first use: the layered engine is most of this
        # package's matching code, and a process that never matches a large
        # window set need not compile it.
        from ._layered import match_layered as engine
    else:
        engine = _list_match
    return engine(keys, n_left, n_right, depth_cap)


def _depth_cap(max_path_len: int | None) -> float:
    """The deepest BFS layer a path of at most ``max_path_len`` edges ends in."""
    # A path ending at a left vertex of BFS depth t has 2t+1 edges.
    return _INF if max_path_len is None else (max_path_len - 1) // 2


def _list_match(
    keys: np.ndarray, n_left: int, n_right: int, depth_cap: list[float]
) -> tuple[np.ndarray, np.ndarray, list[int], list[int], list[int]]:
    """The list engine: ``_match``'s phases on Python lists, one window after
    another, with ``_layered.match_layered``'s arguments and outputs.  A
    window's first phase starts with every left vertex free at level 0, so
    it runs directly: each left vertex in turn takes its first free
    neighbour.  Later phases build their layers and walk them."""
    windows = len(depth_cap)
    indptr, left, right = _csr(keys, windows * n_left, n_right)
    right += left // n_left * n_right  # window w's right vertices follow those before it
    cuts = indptr.tolist()
    flat = right.tolist()
    adj = [flat[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    match_l = [-1] * (windows * n_left)
    match_r = [-1] * (windows * n_right)
    level = [-1] * (windows * n_left)
    ptr = cuts[:-1]  # the walk's arc pointers
    per_window = []  # (size, phases, scans)

    for win, cap in enumerate(depth_cap):
        lo, hi = win * n_left, (win + 1) * n_left
        size = phases = scans = 0
        if cuts[lo] < cuts[hi]:  # phase 1, the greedy pass
            phases = 1
            # The BFS reads the first non-empty row; the walk reads every row
            # but what follows a vertex's first free neighbour.
            scans = next(len(row) for row in adj[lo:hi] if row) + cuts[hi] - cuts[lo]
            for u in range(lo, hi):
                for at, v in enumerate(adj[u], 1):
                    if match_r[v] < 0:
                        match_l[u], match_r[v] = v, u
                        size += 1
                        scans -= len(adj[u]) - at
                        break
        while True:
            # BFS from every free left vertex; find the shallowest layer that
            # reaches a free right vertex.  The queue keeps every vertex it
            # took, layer after layer, and -1 marks a vertex in no layer.
            queue = [u for u in range(lo, hi) if match_l[u] < 0]
            roots = queue[:]
            level[lo:hi] = [-1] * n_left
            for u in roots:
                level[u] = 0
            found = _INF
            for u in queue:
                du = level[u]
                if du >= found or du > cap:
                    continue
                row = adj[u]
                scans += len(row)
                for v in row:
                    w = match_r[v]
                    if w < 0:
                        if found == _INF:
                            found = du
                    elif level[w] < 0:
                        level[w] = du + 1
                        queue.append(w)
            if found == _INF or found > cap:
                break
            phases += 1
            # The last layer, one past ``found``, leads to no shortest path.
            while level[queue[-1]] > found:
                level[queue.pop()] = -1
            ptr[lo:hi] = cuts[lo:hi]
            size += _augment(roots, flat, cuts, ptr, level, match_l, match_r, found)
            scans += sum(ptr[lo:hi]) - sum(cuts[lo:hi])
        per_window.append((size, phases, scans))
    ml, mr = np.array(match_l, dtype=np.int64), np.array(match_r, dtype=np.int64)
    return ml, mr, *map(list, zip(*per_window))


def _augment(roots, flat, cuts, ptr, level, match_l, match_r, found: int) -> int:
    """One phase's augmenting walk; returns the number of paths it flips.

    A DFS from each root in turn goes from ``u`` to the partner ``w`` of a
    neighbour when ``level[w] == level[u] + 1``, and ends at a free neighbour
    of a vertex at level ``found``.  Arc pointer ``ptr[u]`` reads each entry
    of ``flat[cuts[u]:cuts[u+1]]`` once per phase, so the scans are how far
    the pointers moved.  The stack is the path, each vertex on it left along
    ``flat[ptr[u] - 1]``; a vertex out of entries drops to level -1.
    """
    paths = 0
    for root in roots:
        stack = [root]
        while stack:
            u = stack[-1]
            du = level[u]
            at = ptr[u]
            stop = cuts[u + 1]
            while at < stop:
                v = flat[at]
                at += 1
                w = match_r[v]
                if w < 0:
                    if du == found:  # complete only at the shortest layer
                        ptr[u] = at
                        for x in stack:
                            y = flat[ptr[x] - 1]
                            match_l[x] = y
                            match_r[y] = x
                        paths += 1
                        stack.clear()
                        break
                elif level[w] == du + 1:
                    ptr[u] = at
                    stack.append(w)
                    break
            else:
                ptr[u] = at
                level[u] = -1
                stack.pop()
    return paths


def hopcroft_karp(graph: BipartiteGraph) -> Matching:
    """Maximum matching of ``graph`` (parallel edges ignored)."""
    ml, mr, (size,), (phases,), _ = _match(graph.distinct_keys(), graph.l, graph.r)
    return Matching(ml.tolist(), mr.tolist(), size, phases)


def bounded_matching(graph: BipartiteGraph, max_path_len: int) -> Matching:
    """Matching with no remaining augmenting path of ``<= max_path_len`` edges.

    ``max_path_len`` must be an odd ``int`` >= 1 (augmenting paths have odd
    length); anything else, a ``bool`` included, raises ``ValueError``.
    """
    _check_int("max_path_len", max_path_len, 1, None, ValueError, "an odd integer")
    if max_path_len % 2 == 0:
        raise ValueError(f"max_path_len must be an odd integer >= 1, got {max_path_len!r}")
    keys = graph.distinct_keys()
    ml, mr, (size,), (phases,), _ = _match(keys, graph.l, graph.r, ((max_path_len, 1),))
    return Matching(ml.tolist(), mr.tolist(), size, phases)
