"""The layered phase engine of ``matching._match``, for large graphs.

``match_layered`` returns exactly what ``_match``'s list engine returns for
the same graph and cap: the same partners, phases and scans.  The module
docstring of ``matching`` says why counting dead vertices in numpy leaves the
scans unchanged.
"""
from __future__ import annotations

import mmap
from itertools import accumulate

import numpy as np

from .graph import _csr
from .matching import Matching, _augment


def _scratch(sizes: list[int], dtype: type) -> list[np.ndarray]:
    """Uninitialised arrays of ``sizes``, carved from one anonymous mapping.

    The mapping is unmapped once the last array viewing it is gone.  So the
    layered engine's buffers never grow or fragment the malloc heap, whose
    freed pages glibc keeps resident while anything above them lives.
    """
    item = np.dtype(dtype).itemsize
    arena = mmap.mmap(-1, max(1, sum(sizes) * item))
    starts = accumulate(sizes[:-1], initial=0)
    return [
        np.frombuffer(arena, dtype=dtype, count=n, offset=at * item)
        for n, at in zip(sizes, starts)
    ]


def _keep(mask: np.ndarray, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The ``values`` where ``mask`` holds, written to the front of ``out``."""
    return np.compress(mask, values, out=out[: np.count_nonzero(mask)])


def _take(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values[index]``, written to the front of ``out``.

    Under its default ``mode="raise"``, take buffers its output; every index
    here is in range, so ``"clip"`` never clips.
    """
    return np.take(values, index, out=out[: index.size], mode="clip")


def match_layered(
    keys: np.ndarray, n_left: int, n_right: int, depth_cap: float
) -> tuple[Matching, int]:
    """``_match``'s phases with the BFS and the dead vertices' scans in numpy.

    Per phase:

    1. BFS, one numpy gather per layer.  A layer's frontier gathers its
       adjacency entries in queue order and looks up each neighbour's owner.
       At the first layer where some owner is free (``found``), the scans
       are the degrees of the frontier up to and including the first vertex
       with a free neighbour, as the list BFS stops there.  Otherwise the
       next frontier is each owner no layer holds yet, in order of first
       occurrence, which is the list BFS's queue order.  Each layer's entries
       are kept as (left endpoint, owner) pairs.
    2. Alive pass, backward over the kept layers: at ``found`` the vertices
       with a free neighbour, at each layer below those with an entry whose
       owner is alive one layer deeper.
    3. The shared walk, ``matching._augment``, from the alive free roots in
       the same root and adjacency order; it enters only alive vertices.
    4. Dead closure, forward over the kept layers.  The list engine's walk
       would also enter every dead free root, and every dead next-layer
       owner of an entry it read; a dead vertex has only dead next-layer
       owners, so it walks everything those seeds reach, each vertex once
       and in full.  Those vertices are marked in numpy and counted at their
       full degrees.  Every other vertex read as far as its arc pointer
       moved, ``arc - ip[:-1]``.

    Positions, owners and layers are int32.  Every array is a view of
    scratch allocated once per call outside the malloc heap (``_scratch``),
    numpy writes into it with ``out=``, and the DFS reads and writes it
    through memoryviews, so the call puts almost nothing on the heap.  Small
    blocks freed there stay cached by numpy and by glibc, and a cached block
    keeps the freed pages below it resident long after the call.
    """
    i32 = np.int32
    unseen = np.iinfo(i32).max  # dist of a vertex in no layer
    m = keys.size
    big = max(m, n_left)
    # Per adjacency position: its endpoints.  Per kept entry: its left
    # endpoint and the owner of its neighbour (-1 if free).
    source, targets, src, own = _scratch([m] * 4, i32)
    # Scratch sized for the largest layer: ranks 0, 1, 2, ..., gathered
    # positions, and three int and two bool temporaries.
    rank, pos, ta, tb, tc = _scratch([big] * 5, i32)
    ma, mb = _scratch([big] * 2, bool)
    # Per left vertex: degree; the frontiers, layer after layer, the roots
    # first; where its entries start in its layer; the rank of its first
    # entry as an owner; how many of its entries the DFS reads; BFS layer;
    # the DFS's arc pointer and layer; partner.
    deg, order, entry, first, limit, dist, arc, lvl, ml = _scratch([n_left] * 9, i32)
    has_edges, alive = _scratch([n_left] * 2, bool)
    ip, mr = _scratch([n_left + 1, n_right], i32)
    ip[:], source[:], targets[:] = _csr(keys, n_left, n_right)
    np.subtract(ip[1:], ip[:-1], out=deg)
    np.greater(deg, 0, out=has_edges)
    rank[:] = np.arange(big, dtype=i32)
    arc[:] = ip[:-1]
    ml.fill(-1)
    mr.fill(-1)
    # The walk reads and writes its state through memoryviews of the scratch:
    # Python ints in and out, and nothing of the walk left on the heap.
    flat, cuts, ptr, level, match_l, match_r = map(memoryview, (targets, ip, arc, lvl, ml, mr))
    size = 0
    phases = 0
    scans = 0

    while True:
        # 1. BFS.  Free vertices without edges scan nothing and reach nothing.
        free = np.less(ml, 0, out=ma[:n_left])
        free &= has_edges
        roots = _keep(free, rank[:n_left], order)
        dist.fill(unseen)
        dist[roots] = 0
        frontier = roots
        layers: list[tuple[int, int]] = []  # entry range of each layer
        f1 = roots.size
        e0 = 0
        found = -1
        k = 0
        while frontier.size and k <= depth_cap:
            nf = frontier.size
            d = _take(deg, frontier, ta)
            begin = np.add.accumulate(d, out=tb[:nf])
            n_entries = int(begin[-1])
            begin -= d
            entry[frontier] = begin
            e1 = e0 + n_entries
            layers.append((e0, e1))
            # Positions: rank in the layer plus the vertex's run offset,
            # spread over its run by a cumsum of the offset steps.
            offset = _take(ip, frontier, tc)
            offset -= begin
            p = pos[:n_entries]
            p.fill(0)
            step = np.subtract(offset[1:], offset[:-1], out=ta[1:nf])
            p[begin[1:]] = step
            p[0] = offset[0]
            np.add.accumulate(p, out=p)
            p += rank[:n_entries]
            _take(source, p, src[e0:])
            o = _take(mr, _take(targets, p, ta), own[e0:])
            i = int(o.argmin())
            if o[i] < 0:
                found = k
                u = int(src[e0 + i])
                scans += int(entry[u]) + int(deg[u])
                break
            scans += n_entries
            k += 1
            if k > depth_cap:
                break
            # Unseen owners, each at its first occurrence.
            fresh = _keep(np.equal(_take(dist, o, ta), unseen, out=ma[:n_entries]), o, tc)
            r = rank[: fresh.size]
            first[fresh] = fresh.size
            np.minimum.at(first, fresh, r)
            lead = _take(first, fresh, ta)
            frontier = _keep(np.equal(lead, r, out=ma[: fresh.size]), fresh, order[f1:])
            f1 += frontier.size
            dist[frontier] = k
            e0 = e1
        if found < 0:
            break
        phases += 1

        # 2. Alive pass.
        alive.fill(False)
        e0, e1 = layers[found]
        hit = np.less(own[e0:e1], 0, out=ma[: e1 - e0])
        alive[_keep(hit, src[e0:e1], ta)] = True
        for k in range(found - 1, -1, -1):
            e0, e1 = layers[k]
            o = own[e0:e1]
            hit = _take(alive, o, ma)
            hit &= np.equal(_take(dist, o, ta), k + 1, out=mb[: o.size])
            alive[_keep(hit, src[e0:e1], ta)] = True

        # 3. The shared walk; a level of -1 never equals a layer + 1.
        lvl.fill(-1)
        np.putmask(lvl, alive, dist)
        live = _take(alive, roots, ma)
        size += _augment(
            memoryview(_keep(live, roots, ta)), flat, cuts, ptr, level, match_l, match_r, found
        )

        # 4. Dead closure.  Each vertex read the entries its arc pointer
        # passed, a reached dead vertex all of them: ``limit`` counts them,
        # and their sum is the DFS's scans.  The owners of those entries are
        # still the kept ones, as a dead vertex's partner never flips.
        np.subtract(arc, ip[:-1], out=limit)
        arc[:] = ip[:-1]  # rewound for the next phase
        seed = _keep(np.logical_not(live, out=live), roots, ta)
        limit[seed] = _take(deg, seed, tb)
        for k in range(found):
            e0, e1 = layers[k]
            s = src[e0:e1]
            o = own[e0:e1]
            index = np.subtract(rank[: s.size], _take(entry, s, ta), out=ta[: s.size])
            hit = np.less(index, _take(limit, s, tb), out=ma[: s.size])
            hit &= np.equal(_take(dist, o, ta), k + 1, out=mb[: s.size])
            hit &= np.logical_not(_take(alive, o, mb), out=mb[: s.size])
            seed = _keep(hit, o, tc)
            limit[seed] = _take(deg, seed, ta)
        scans += int(limit.sum(dtype=i32))
    return Matching(ml.tolist(), mr.tolist(), size, phases), scans
