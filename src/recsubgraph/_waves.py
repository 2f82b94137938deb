"""Greedy's wave engine, for large graphs and for a batch of greedy cells
that ``solvers._solve_cells`` decides together.

``greedy_waves`` returns exactly the selection of greedy's target loop (input
order, least-spent sources first, ties by index), with whole waves of targets
decided by one round of numpy calls each.

A target's decision reads and writes only the budgets of its own sources, so
two targets that share no source can be decided together.  Each source keeps
a pointer to its first target not yet decided, in index order.  A target
is *ready* once every source of it points at it or is full: then every target
before it that could change those budgets is decided, and no other ready
target shares a non-full source with it.  A wave decides every ready target
at once.  The first undecided target is always ready, so the waves decide
every target.

A full source takes part in no later decision, so it stops pointing at
anything: it counts as having passed all of its remaining targets at once.

Several ``(c, a)`` cells on one graph run as one pass over a disjoint union
of copies of the graph, a lone cell being a union of one: copy ``k`` owns
sources ``k*l + u`` and targets ``k*r + v``, with budget ``c_k`` per source
and ``a_k`` per target.  No copy shares a vertex with another, so each cell
gets exactly its own selection, and the cells share the numpy calls of
every wave; a pass takes as many waves as its slowest cell.
"""
from __future__ import annotations

import numpy as np

from .graph import BipartiteGraph, _by_target, _distinct_sorted, _segments


def greedy_waves(graph: BipartiteGraph, cells: list[tuple[int, int]]) -> list[np.ndarray]:
    """Ascending ``u*r + v`` keys of greedy's selection at each ``(c, a)`` of
    ``cells``.

    It reads the loop's by-target view, ``graph._by_target``, which the
    graph keeps.  Targets with fewer than ``a`` distinct sources are dropped
    up front, as no budget can cover them.

    One wave:

    1. Gather each ready target's sources and keep the spare ones
       (``used < c``), the loop's test.
    2. A target with at least ``a`` spare sources takes the first ``a`` by
       ``(used, u)`` and adds them to ``used``.
    3. Each spare source advances one target; one that has just filled
       passes all of its remaining targets.  ``missing[t]`` counts the
       sources of ``t`` still behind it, and the targets it drops to zero
       for are the next wave.

    The pass works on the union of the cells' copies, a lone cell being a
    union of one: the per-source arrays (budgets, pointers, bounds) are
    ``K*l`` long, the per-target ones ``K*r`` and the by-source targets
    ``K*m``, for ``K`` cells and ``m`` distinct edges.  The by-target index
    is not copied: each wave shifts the sources it gathers into their copy.
    A union of one is the graph itself, so it skips the three steps that
    only renumber copies: the copy of its by-source targets, the shift of
    each wave's sources and the decode.  Done anyway, they cost a lone
    solve on a 2e6-edge graph about a tenth of its time.
    """
    l, r = graph.l, graph.r
    n = len(cells)
    deg = graph.distinct_in_degrees()
    # By target: its sources, ascending, in by_t[t_off[t]:t_off[t + 1]].
    # Taken first: a first call decodes it holding two edge-sized arrays.
    t_off, by_t = _by_target(graph)
    # By source: its targets, v[ptr[u]:end[u]] still undecided.  The keys
    # ascend, so each source's run starts at the first key of u*r or more.
    keys = graph.distinct_keys()
    v_all = keys % r
    runs: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # by a: (v, bounds)
    for _, a in cells:
        if a not in runs:
            keep = (deg >= a)[v_all]
            kept, v = (keys, v_all) if keep.all() else (keys[keep], v_all[keep])
            del keep
            runs[a] = (v, np.searchsorted(kept, np.arange(l + 1, dtype=np.int64) * r))
            del kept
    del keys, v_all
    # Copy k's targets are shifted by k*r and its by-source runs by the
    # edges of the copies before it, written in place so that no copy is
    # held twice.  The by-target index stays the graph's own, and each wave
    # shifts what it gathers: a union copy of it would hold K*m more
    # entries at the peak.
    if n == 1:
        v = runs[cells[0][1]][0]
    else:
        v = np.empty(sum(runs[a][0].size for _, a in cells), dtype=np.int64)
    ptr = np.empty(n * l, dtype=np.int64)
    end = np.empty(n * l, dtype=np.int64)
    at = 0
    for k, (_, a) in enumerate(cells):
        v_k, bounds = runs[a]
        if n > 1:
            np.add(v_k, k * r, out=v[at : at + v_k.size])
        np.add(bounds[:-1], at, out=ptr[k * l : (k + 1) * l])
        np.add(bounds[1:], at, out=end[k * l : (k + 1) * l])
        at += v_k.size
    del runs
    # Budget and need per copy.  Each source keeps what it has spent less
    # its copy's budget, below 0 while it is spare, so no wave gathers
    # budgets per source.  c may be up to 2**63 - 1, and int64 holds -c.
    caps = np.array([c for c, _ in cells], dtype=np.int64)
    need = np.array([a for _, a in cells], dtype=np.int64)
    over = np.repeat(-caps, l)
    missing = np.tile(deg, n)

    out_u = [np.empty(0, dtype=np.int64)]
    out_t = [np.empty(0, dtype=np.int64)]
    arrive = v[ptr[ptr < end]]
    while True:
        np.subtract.at(missing, arrive, 1)
        ready = arrive[missing[arrive] == 0]
        if not ready.size:
            break
        ready.sort()
        wave = _distinct_sorted(ready)
        del ready

        # 1. Each target's spare sources, ascending, grouped by wave position.
        # Copy k's target k*r + v has the sources of v, moved into copy k.
        copy, wv = np.divmod(wave, r)
        counts = deg[wv]
        group = np.repeat(np.arange(wave.size, dtype=np.int64), counts)
        src = by_t[_segments(t_off[wv], counts)]
        del wv
        if n > 1:  # copy 0 is in place
            src += np.repeat(copy * l, counts)
        spare = over[src] < 0
        src, group = src[spare], group[spare]
        del spare
        # 2. The picks.
        n_spare = np.bincount(group, minlength=wave.size)
        a = need[copy]
        enough = n_spare >= a
        taken = enough[group]
        pick_src, pick_group = src[taken], group[taken]
        del taken
        # Stable, so equal budgets keep index order.  The key is bounded by
        # what sources have spent, at most r each, never by c (which may be
        # 2**63 - 1): it stays below K*r * (r + 1).
        spent = over[pick_src] + caps[copy][pick_group]
        key = pick_group * (int(spent.max(initial=0)) + 1) + spent
        pick_src = pick_src[np.argsort(key, kind="stable")]
        del spent, key
        n_taken = np.where(enough, n_spare, 0)
        first = np.add.accumulate(n_taken) - n_taken
        # The first a of each group: those placed before its start plus a.
        first_a = np.arange(pick_src.size, dtype=np.int64) < (first + a)[pick_group]
        pick_src, pick_group = pick_src[first_a], pick_group[first_a]
        over[pick_src] += 1
        out_u.append(pick_src)
        out_t.append(wave[pick_group])
        # 3. Advance every spare source.
        ptr[src] += 1
        left = end[src] - ptr[src]
        full = over[src] >= 0
        steps = np.where(full, left, np.minimum(left, 1))
        arrive = v[_segments(ptr[src], steps)]

    # The union's arrays go first, so the decode's own never sit on top of
    # them.
    del v, ptr, end, over, missing
    if n == 1:
        sel = np.concatenate(out_u) * r
        sel += np.concatenate(out_t)
        sel.sort()
        return [sel]
    # Back to each copy's own numbering.  The copy is taken off each side
    # apart: copy*l*r can pass int64 when l and r each reach 2**31.
    t = np.concatenate(out_t)
    del out_t
    copy = t // r
    t -= copy * r
    sel = np.concatenate(out_u)
    del out_u
    sel -= copy * l
    sel *= r
    sel += t
    del t
    sel = sel[np.lexsort((sel, copy))]
    cuts = np.add.accumulate(np.bincount(copy, minlength=n))[:-1]
    return np.split(sel, cuts)
