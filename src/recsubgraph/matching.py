"""Maximum and depth-capped bipartite matchings (Hopcroft–Karp family).

The depth-capped variant stops as soon as the shortest augmenting path would
exceed ``max_path_len`` edges; since a matching with no augmenting path
shorter than 2·alpha+1 is within a factor 1 - 1/alpha of maximum, the cap
trades quality for time in a controlled way.  ``max_path_len=1`` degenerates
to a maximal matching.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph, _csr

__all__ = ["Matching", "hopcroft_karp", "bounded_matching"]

_INF = float("inf")


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
    max_path_len: int | None = None,
) -> tuple[Matching, int]:
    """Layered augmentation on the graph of ascending distinct ``u*n_right + v`` keys.

    Returns the matching and its number of edge scans.  With
    ``max_path_len=None`` this is plain Hopcroft–Karp; otherwise augmentation
    stops once the shortest augmenting path exceeds the cap.  Distinct keys
    matter: parallel edges add nothing to a matching.
    """
    indptr, _, right = _csr(keys, n_left, n_right)
    cuts = indptr.tolist()
    targets = right.tolist()
    adj = [targets[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    size = 0
    # A path ending at a left vertex of BFS depth t has 2t+1 edges.
    depth_cap = _INF if max_path_len is None else (max_path_len - 1) // 2
    dist = [_INF] * n_left
    phases = 0
    scans = 0

    while True:
        # BFS from every free left vertex; find the shallowest layer that
        # reaches a free right vertex.
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_l[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = _INF
        while queue:
            u = queue.popleft()
            du = dist[u]
            if du >= found or du > depth_cap:
                continue
            for v in adj[u]:
                scans += 1
                w = match_r[v]
                if w < 0:
                    if found == _INF:
                        found = du
                elif dist[w] == _INF:
                    dist[w] = du + 1
                    queue.append(w)
        if found == _INF or found > depth_cap:
            break
        phases += 1

        # Depth-first augmentation along shortest layers only, one arc pointer
        # per left vertex so each edge is tried at most once per phase.  The
        # stack is the path: each vertex on it left along adj[u][ptr[u] - 1].
        ptr = [0] * n_left
        for root in range(n_left):
            if match_l[root] >= 0:
                continue
            stack = [root]
            while stack:
                u = stack[-1]
                du = dist[u]
                nbrs = adj[u]
                while ptr[u] < len(nbrs):
                    v = nbrs[ptr[u]]
                    ptr[u] += 1
                    scans += 1
                    w = match_r[v]
                    if w < 0:
                        if du == found:  # complete only at the shortest layer
                            for x in stack:
                                y = adj[x][ptr[x] - 1]
                                match_l[x] = y
                                match_r[y] = x
                            size += 1
                            stack.clear()
                            break
                    elif dist[w] == du + 1 and dist[w] <= found:
                        stack.append(w)
                        break
                else:
                    dist[u] = _INF  # dead end for the rest of this phase
                    stack.pop()
    return Matching(match_l, match_r, size, phases), scans


def hopcroft_karp(graph: BipartiteGraph) -> Matching:
    """Maximum matching of ``graph`` (parallel edges ignored)."""
    return _match(graph.distinct_keys(), graph.l, graph.r)[0]


def bounded_matching(graph: BipartiteGraph, max_path_len: int) -> Matching:
    """Matching with no remaining augmenting path of ``<= max_path_len`` edges.

    ``max_path_len`` must be odd and >= 1 (augmenting paths have odd length).
    """
    if max_path_len < 1 or max_path_len % 2 == 0:
        raise ValueError(f"max_path_len must be odd and >= 1, got {max_path_len}")
    return _match(graph.distinct_keys(), graph.l, graph.r, max_path_len)[0]
