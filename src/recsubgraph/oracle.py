"""Exact optima via matching feasibility search.

A target set T is fully coverable iff one largest budgeted selection into T
gives every target ``a`` links.  That selection is a bipartite b-matching with
unit edge capacities, found as a plain maximum matching on a split graph (see
:func:`_served`).  One selection into all candidates brackets the optimum; an
open bracket is closed by walking target subsets by decreasing size, which is
exponential, hence the guard on the number of subsets that walk would try.
"""
from __future__ import annotations

from itertools import accumulate, combinations
from math import comb

import numpy as np

from .graph import BipartiteGraph, ProblemParams, _by_target, _check_type, _segments
from .matching import _match

__all__ = ["OracleSizeError", "exact_opt", "SIZE_GUARD"]

SIZE_GUARD = 20  # exact_opt refuses a subset search over more than 2**SIZE_GUARD subsets


class OracleSizeError(ValueError):
    """Subset search too large to run."""


def _served(offsets, sources, targets, l: int, c: int, a: int) -> np.ndarray:
    """Links each of ``targets`` gets in one largest selection into them.

    ``sources[offsets[v]:offsets[v+1]]`` are the distinct candidate sources
    of target ``v`` (as :func:`graph._by_target` returns them); each source
    gives at most ``c`` links and each target takes at most ``a``.  The
    selection is a maximum matching on a split graph.  Each candidate edge
    ``e = (u, v)`` becomes a right node ``x_e`` and a left node ``y_e``,
    joined by an edge.  The ``a`` copies of ``v`` (left) reach ``x_e``, and
    ``y_e`` reaches the ``c`` copies of ``u`` (right).  A maximum matching has
    ``m + (largest selection)`` edges, where ``m`` counts the candidate edges:
    ``e`` is selected when a copy of ``v`` holds ``x_e`` and ``y_e`` holds a
    copy of ``u``.  At ``a == 1`` no target can use an edge twice, so there
    is no split: left vertex ``k`` is the k-th target, right vertex
    ``u*c + i`` copy ``i`` of source ``u``, and a matched target is served.
    """
    first = offsets[targets]
    deg = offsets[targets + 1] - first
    edge_u = sources[_segments(first, deg)]
    if a == 1:
        # Each target's sources ascend, so its keys k*l*c + u*c + i do.
        row = (np.arange(len(targets)) * (l * c)).repeat(deg) + edge_u * c
        keys = (row[:, None] + np.arange(c)).ravel()
        return (_match(keys, len(targets), l * c)[0] >= 0).astype(np.int64)
    m = int(deg.sum())
    copies = a * len(targets)
    # Left: the copies of each target in turn, then y_e at copies + e.  Right:
    # x_e at e, then copy i of source u at m + u*c + i.  Copies first let the
    # first phase route most links, which saves about a third of the scans.
    n_right = m + l * c
    start = deg.cumsum() - deg  # each target's first edge
    e = np.arange(m)
    # Row k*a + j, copy j of the k-th target, reaches x_e for that target's e.
    row_deg = deg.repeat(a)
    row_base = np.arange(copies) * n_right + start.repeat(a) - (row_deg.cumsum() - row_deg)
    copy_keys = row_base.repeat(row_deg) + np.arange(a * m)
    y_row = (copies + e) * n_right
    y_keys = np.empty((m, c + 1), dtype=np.int64)
    y_keys[:, 0] = y_row + e
    y_keys[:, 1:] = (y_row + m + edge_u * c)[:, None] + np.arange(c)
    keys = np.concatenate((copy_keys, y_keys.ravel()))
    match_l = _match(keys, copies + m, n_right)[0]
    # A copy of v may hold x_e while y_e stays free: a half-used edge, which
    # a maximum matching can keep and which gives no link.
    held = match_l[:copies]
    linked = held >= 0
    linked[linked] = match_l[copies + held[linked]] >= 0
    return linked.reshape(-1, a).sum(axis=1)


def exact_opt(graph: BipartiteGraph, params: ProblemParams) -> int:
    """Exact maximum coverage, by matching and, if needed, subset search.

    Only targets with at least ``a`` distinct candidate sources can ever be
    covered.  One selection into all of them brackets the optimum: the
    targets it serves fully are a feasible set, and its links over ``a`` cap
    any feasible size.  When the two meet, that is the optimum, at any size.
    Otherwise subsets of sizes between the two are tried in decreasing size
    with a matching feasibility check each, returning on the first feasible
    size.  Raises :class:`OracleSizeError` before that search when it would
    try more than ``2**SIZE_GUARD`` subsets.
    """
    _check_type("params", params, ProblemParams, ValueError)
    # No source gives more links than it has candidate edges, so a larger c
    # changes no optimum; capping it keeps the split graph's c copies small.
    c, a = min(params.c, int(graph.left_degrees.max(initial=1))), params.a
    offsets, sources = _by_target(graph)
    cands = (graph.distinct_in_degrees() >= a).nonzero()[0]
    served = _served(offsets, sources, cands, graph.l, c, a)
    lo = int(np.count_nonzero(served == a))
    hi = int(served.sum()) // a
    # any() stops at the first partial sum over the limit: no huge integers.
    sizes = range(hi, lo, -1)
    if any(n > 2**SIZE_GUARD for n in accumulate(comb(cands.size, k) for k in sizes)):
        raise OracleSizeError(
            f"the optimum lies in {lo}..{hi}; searching subsets of "
            f"{cands.size} candidate targets exceeds 2**{SIZE_GUARD} subsets"
        )
    for size in sizes:
        for subset in combinations(cands, size):
            if _served(offsets, sources, np.array(subset), graph.l, c, a).sum() == a * size:
                return size
    return lo
