"""Exact optima for small instances via max-flow feasibility search.

A target set T is fully coverable iff the flow network (source -> each u with
capacity c, u -> v with capacity 1 per distinct candidate edge, v -> sink with
capacity a for v in T) carries ``a * |T|`` units.  The exact optimum walks
candidate target subsets by decreasing size and returns the first feasible
size — exponential in r, hence the hard size guard.
"""
from __future__ import annotations

from itertools import combinations

from .graph import BipartiteGraph, ProblemParams, _csr

__all__ = ["OracleSizeError", "exact_opt", "SIZE_GUARD"]

SIZE_GUARD = 20  # exact_opt refuses l or r beyond this unless forced


class OracleSizeError(ValueError):
    """Instance too large for exhaustive search."""


def _network(
    graph: BipartiteGraph, params: ProblemParams
) -> tuple[list[list[int]], list[int], list[int], int]:
    """Budgeted-coverage network with every target's sink arc shut.

    Node ``0`` is the source, ``1 .. l`` the left vertices, ``l+1 .. l+r`` the
    right vertices and ``l+r+1`` the sink.  Returns ``(head, to, cap, first)``:
    the arcs leaving each node, every arc's head and capacity (arc ``e ^ 1``
    is the reverse of arc ``e``), and the index of target 0's sink arc; target
    ``v``'s is ``first + 2*v``, with capacity 0 until a caller opens it.
    """
    l, r = graph.l, graph.r
    sink = l + r + 1
    head: list[list[int]] = [[] for _ in range(sink + 1)]
    to: list[int] = []
    cap: list[int] = []
    # Parallel candidates carry no extra flow.
    _, eu, ev = _csr(graph.distinct_keys(), l, r)
    arcs = [(0, 1 + u, params.c) for u in range(l)]
    arcs += [(1 + u, 1 + l + v, 1) for u, v in zip(eu.tolist(), ev.tolist())]
    arcs += [(1 + l + v, sink, 0) for v in range(r)]
    for u, v, capacity in arcs:
        head[u].append(len(to))
        to.append(v)
        cap.append(capacity)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)
    return head, to, cap, len(to) - 2 * r


def _max_flow(head: list[list[int]], to: list[int], cap: list[int]) -> int:
    """Dinic's algorithm from the first node to the last; consumes ``cap``."""
    n = len(head)
    s, t = 0, n - 1
    total = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in head[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return total
        # Blocking flow by depth-first search with an explicit stack, since an
        # augmenting path can be as long as the graph.  Arc pointers persist
        # through the phase, so an arc found dead is never tried again.
        ptr = [0] * n
        while True:
            path: list[int] = []  # arcs from s to u
            u = s
            while u != t:
                if ptr[u] == len(head[u]):  # dead end: retreat one arc
                    if not path:
                        break
                    u = to[path.pop() ^ 1]
                    ptr[u] += 1
                    continue
                e = head[u][ptr[u]]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    path.append(e)
                    u = to[e]
                else:
                    ptr[u] += 1
            if u != t:
                break
            got = min(cap[e] for e in path)
            for e in path:
                cap[e] -= got
                cap[e ^ 1] += got
            total += got


def exact_opt(
    graph: BipartiteGraph, params: ProblemParams, force: bool = False
) -> int:
    """Exact maximum coverage, by exhaustive target-subset search.

    Only targets with at least ``a`` distinct candidate sources can ever be
    covered; subsets of them are tried in decreasing size with a flow
    feasibility check each, returning on the first feasible size.  At
    ``a == 1`` one max-flow gives the optimum and no subset is tried.  Refuses
    ``l`` or ``r`` beyond :data:`SIZE_GUARD` unless ``force`` is set.
    """
    if not force and (graph.l > SIZE_GUARD or graph.r > SIZE_GUARD):
        raise OracleSizeError(
            f"instance {graph.l}x{graph.r} exceeds the size guard "
            f"({SIZE_GUARD}); pass force=True to insist"
        )
    cands = [
        v
        for v, deg in enumerate(graph.distinct_in_degrees().tolist())
        if deg >= params.a
    ]
    if not cands:
        return 0
    # The flow value with every candidate's sink open is the optimum at a=1;
    # otherwise it and the budget bound are two cheap true bounds that shrink
    # the search.  One network serves every subset: each test copies the
    # shut capacities and opens only that subset's sink arcs.
    head, to, shut, first = _network(graph, params)

    def flow(targets) -> int:
        cap = shut.copy()
        for v in targets:
            cap[first + 2 * v] = params.a
        return _max_flow(head, to, cap)

    full = flow(cands)
    if params.a == 1:
        return full
    smax = min(len(cands), (graph.l * params.c) // params.a, full // params.a)
    for size in range(smax, 0, -1):
        want = params.a * size
        for subset in combinations(cands, size):
            if flow(subset) == want:
                return size
    return 0
