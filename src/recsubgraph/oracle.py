"""Exact optima for small instances via max-flow feasibility search.

A target set T is fully coverable iff the flow network (source -> each u with
capacity c, u -> v with capacity 1 per distinct candidate edge, v -> sink with
capacity a for v in T) carries ``a * |T|`` units.  The exact optimum walks
candidate target subsets by decreasing size and returns the first feasible
size — exponential in r, hence the hard size guard.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .graph import BipartiteGraph, ProblemParams

__all__ = [
    "OracleSizeError",
    "FlowNetwork",
    "max_flow",
    "exact_opt",
    "SIZE_GUARD",
]

SIZE_GUARD = 20  # exact_opt refuses l or r beyond this unless forced


class OracleSizeError(ValueError):
    """Instance too large for exhaustive search."""


class FlowNetwork:
    """Residual-arc flow network.

    Node layout for selection problems: ``0`` is the source, ``1 .. l`` the
    left vertices, ``l+1 .. l+r`` the right vertices, ``l+r+1`` the sink.
    """

    def __init__(self, n_nodes: int, source: int = 0, sink: int | None = None) -> None:
        self.n = n_nodes
        self.source = source
        self.sink = n_nodes - 1 if sink is None else sink
        self.head: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, capacity: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    @classmethod
    def from_selection_problem(
        cls, graph: BipartiteGraph, params: ProblemParams, targets
    ) -> "FlowNetwork":
        """Budgeted-coverage network; sink arcs open only for ``targets``."""
        l, r = graph.l, graph.r
        net = cls(l + r + 2)
        for u in range(l):
            net.add_arc(0, 1 + u, params.c)
        # Parallel candidates carry no extra flow.
        eu, ev = np.divmod(graph.distinct_keys(), r)
        for u, v in zip(eu.tolist(), ev.tolist()):
            net.add_arc(1 + u, 1 + l + v, 1)
        for v in targets:
            net.add_arc(1 + l + v, net.sink, params.a)
        return net


def max_flow(net: FlowNetwork) -> int:
    """Dinic's algorithm between ``net.source`` and ``net.sink``."""
    s, t = net.source, net.sink
    total = 0
    while True:
        level = [-1] * net.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in net.head[u]:
                v = net.to[e]
                if net.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return total
        # Blocking flow by depth-first search with an explicit stack, since an
        # augmenting path can be as long as the graph.  Arc pointers persist
        # through the phase, so an arc found dead is never tried again.
        ptr = [0] * net.n
        while True:
            path: list[int] = []  # arcs from s to u
            u = s
            while u != t:
                if ptr[u] == len(net.head[u]):  # dead end: retreat one arc
                    if not path:
                        break
                    u = net.to[path.pop() ^ 1]
                    ptr[u] += 1
                    continue
                e = net.head[u][ptr[u]]
                if net.cap[e] > 0 and level[net.to[e]] == level[u] + 1:
                    path.append(e)
                    u = net.to[e]
                else:
                    ptr[u] += 1
            if u != t:
                break
            got = min(net.cap[e] for e in path)
            for e in path:
                net.cap[e] -= got
                net.cap[e ^ 1] += got
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
    # the search.
    full = max_flow(FlowNetwork.from_selection_problem(graph, params, cands))
    if params.a == 1:
        return full
    smax = min(len(cands), (graph.l * params.c) // params.a, full // params.a)
    for size in range(smax, 0, -1):
        want = params.a * size
        for subset in combinations(cands, size):
            net = FlowNetwork.from_selection_problem(graph, params, subset)
            if max_flow(net) == want:
                return size
    return 0
