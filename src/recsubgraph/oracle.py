"""Exact optima for small instances via matching feasibility search.

A target set T is fully coverable iff one largest budgeted selection into T
gives every target ``a`` links.  That selection is a bipartite b-matching with
unit edge capacities, found as a plain maximum matching on a split graph (see
:func:`_served`).  The exact optimum walks candidate target subsets by
decreasing size and returns the first feasible size — exponential in r, hence
the hard size guard.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .graph import BipartiteGraph, ProblemParams, _by_target
from .matching import _match

__all__ = ["OracleSizeError", "exact_opt", "SIZE_GUARD"]

SIZE_GUARD = 20  # exact_opt refuses l or r beyond this unless forced


class OracleSizeError(ValueError):
    """Instance too large for exhaustive search."""


def _served(sources: list[list[int]], targets, l: int, c: int, a: int) -> list[int]:
    """Links each of ``targets`` gets in one largest selection into them.

    ``sources[v]`` lists the distinct candidate sources of target ``v``; each
    source gives at most ``c`` links and each target takes at most ``a``.
    The selection is a maximum matching on a split graph.  Each candidate
    edge ``e = (u, v)`` becomes a right node ``x_e`` and a left node ``y_e``,
    joined by an edge.  The ``a`` copies of ``v`` (left) reach ``x_e``, and
    ``y_e`` reaches the ``c`` copies of ``u`` (right).  A maximum matching has
    ``m + (largest selection)`` edges, where ``m`` counts the candidate edges:
    ``e`` is selected when a copy of ``v`` holds ``x_e`` and ``y_e`` holds a
    copy of ``u``.
    """
    m = sum(len(sources[v]) for v in targets)
    copies = a * len(targets)
    # Left: the copies of each target in turn, then y_e at copies + e.  Right:
    # x_e at e, then copy i of source u at m + u*c + i.  Copies first let the
    # first phase route most links, which saves about a third of the scans.
    n_right = m + l * c
    keys: list[int] = []
    row = e = 0
    for v in targets:
        stop = e + len(sources[v])
        for _ in range(a):
            keys.extend(range(row + e, row + stop))
            row += n_right
        e = stop
    e = 0
    for v in targets:
        for u in sources[v]:
            keys.append(row + e)
            keys.extend(range(row + m + u * c, row + m + (u + 1) * c))
            row += n_right
            e += 1
    match_l = _match(np.array(keys, dtype=np.int64), copies + m, n_right)[0].match_l
    # A copy of v may hold x_e while y_e stays free: a half-used edge, which
    # a maximum matching can keep and which gives no link.
    served = []
    for first in range(0, copies, a):
        held = (match_l[j] for j in range(first, first + a))
        served.append(sum(1 for x in held if x >= 0 and match_l[copies + x] >= 0))
    return served


def exact_opt(
    graph: BipartiteGraph, params: ProblemParams, force: bool = False
) -> int:
    """Exact maximum coverage, by exhaustive target-subset search.

    Only targets with at least ``a`` distinct candidate sources can ever be
    covered.  One selection into all of them bounds the search: the targets
    it serves fully are a feasible set, and its links over ``a`` cap any
    feasible size.  Subsets of sizes between the two are tried in decreasing
    size with a matching feasibility check each, returning on the first
    feasible size.  Refuses ``l`` or ``r`` beyond :data:`SIZE_GUARD` unless
    ``force`` is set.
    """
    if not force and (graph.l > SIZE_GUARD or graph.r > SIZE_GUARD):
        raise OracleSizeError(
            f"instance {graph.l}x{graph.r} exceeds the size guard "
            f"({SIZE_GUARD}); pass force=True to insist"
        )
    c, a = params.c, params.a
    # Distinct sources only: parallel candidates give no extra link.
    offsets, flat = (x.tolist() for x in _by_target(graph))
    sources = [flat[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    cands = [v for v in range(graph.r) if len(sources[v]) >= a]
    served = _served(sources, cands, graph.l, c, a)
    lo = served.count(a)
    for size in range(sum(served) // a, lo, -1):
        for subset in combinations(cands, size):
            if sum(_served(sources, subset, graph.l, c, a)) == a * size:
                return size
    return lo
