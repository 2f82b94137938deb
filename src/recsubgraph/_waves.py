"""The wave engine of ``solvers.greedy_with_stats``, for large graphs.

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
"""
from __future__ import annotations

import numpy as np

from .graph import BipartiteGraph, _by_target, _distinct_sorted, _segments


def greedy_waves(graph: BipartiteGraph, c: int, a: int) -> np.ndarray:
    """Ascending ``u*r + v`` keys of greedy's selection.

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
    """
    l, r = graph.l, graph.r
    deg = graph.distinct_in_degrees()
    # By target: its sources, ascending, in by_t[t_off[t]:t_off[t + 1]].
    # Taken first: a first call decodes it holding two edge-sized arrays.
    t_off, by_t = _by_target(graph)
    # By source: its targets, v[ptr[u]:end[u]] still undecided.  The keys
    # ascend, so each source's run starts at the first key of u*r or more.
    keys = graph.distinct_keys()
    v = keys % r
    keep = (deg >= a)[v]
    if not keep.all():
        keys, v = keys[keep], v[keep]
    del keep
    bounds = np.searchsorted(keys, np.arange(l + 1, dtype=np.int64) * r)
    del keys
    ptr = bounds[:-1].copy()
    end = bounds[1:]
    missing = deg.copy()

    used = np.zeros(l, dtype=np.int64)
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
        counts = deg[wave]
        group = np.repeat(np.arange(wave.size, dtype=np.int64), counts)
        src = by_t[_segments(t_off[wave], counts)]
        spare = used[src] < c
        src, group = src[spare], group[spare]
        del spare
        # 2. The picks.
        n_spare = np.bincount(group, minlength=wave.size)
        taken = n_spare[group] >= a
        pick_src, pick_group = src[taken], group[taken]
        del taken
        # Stable, so equal budgets keep index order; the key stays below
        # r * (r + 1), as no budget passes the number of targets.
        spent = used[pick_src]
        key = pick_group * (int(spent.max(initial=0)) + 1) + spent
        pick_src = pick_src[np.argsort(key, kind="stable")]
        del spent, key
        n_taken = np.where(n_spare >= a, n_spare, 0)
        first = np.add.accumulate(n_taken) - n_taken
        rank_in = np.arange(pick_src.size, dtype=np.int64) - first[pick_group]
        first_a = rank_in < a
        pick_src, pick_group = pick_src[first_a], pick_group[first_a]
        used[pick_src] += 1
        out_u.append(pick_src)
        out_t.append(wave[pick_group])
        # 3. Advance every spare source.
        ptr[src] += 1
        left = end[src] - ptr[src]
        full = used[src] >= c
        steps = np.where(full, left, np.minimum(left, 1))
        arrive = v[_segments(ptr[src], steps)]

    sel = np.concatenate(out_u) * r
    sel += np.concatenate(out_t)
    sel.sort()
    return sel
