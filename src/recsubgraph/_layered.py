"""The layered phase engine of ``matching._match``, for large graphs.

``match_layered`` matches one graph, or several disjoint *windows* at once,
as partition hands them over.  Each window gets exactly what ``_match``'s
list engine returns for it alone: the same partners, phases and scans.  The
windows share one phase loop, so each BFS layer is one round of numpy calls
for all of them, but each keeps its own found layer, scans, walk and dead
closure.  The module docstring of ``matching`` says why counting dead
vertices in numpy leaves the scans unchanged.
"""
from __future__ import annotations

import mmap
from itertools import accumulate

import numpy as np

from .graph import _csr
from .matching import _INF, _augment


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
    return values.compress(mask, out=out[: np.count_nonzero(mask)])


def _take(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values[index]``, written to the front of ``out``.

    Under its default ``mode="raise"``, take buffers its output, so this
    clips.  Only a free owner, -1, is ever out of range: it reads vertex 0,
    and every caller that can meet one masks it out.
    """
    return values.take(index, out=out[: index.size], mode="clip")


def match_layered(
    keys: np.ndarray, n_left: int, n_right: int, depth_cap: float | list[float], windows: int
) -> tuple[np.ndarray, np.ndarray, list[int], list[int], list[int]]:
    """``_match``'s phases on ``windows`` disjoint graphs, with the BFS and the
    dead vertices' scans in numpy.

    Window ``w`` owns left vertices ``w*n_left + u`` and right vertices
    ``w*n_right + v`` for ``u < n_left``, ``v < n_right``; ``keys`` are the
    ascending distinct ``(w*n_left + u)*n_right + v``.  One window is one
    graph keyed as ``_match`` keys it.  Returns the partner of every left and
    every right vertex (-1 when free; views of the call's scratch, so read
    them before the next call), and per window its matching size, phases
    and scans, each what ``_match`` returns for that window alone.

    Per phase, for all windows that still augment:

    1. BFS, one numpy gather per layer.  A layer's frontier gathers its
       adjacency entries in queue order and looks up each neighbour's owner.
       The frontier, and so each layer's entries, run window by window.  At
       the first layer where some owner in a window is free (the window's
       ``found``), its scans are the degrees of its frontier up to and
       including the first vertex with a free neighbour, as the list BFS
       stops there, and the window leaves the BFS.  The other windows go on:
       their next frontier is each owner no layer holds yet, in order of
       first occurrence, which is the list BFS's queue order.  A window
       whose own ``depth_cap`` (one for all, or one per window) is the
       current layer adds nothing to the next frontier.  Each layer's
       entries are kept with their position, left endpoint and owner.  A
       window that reaches no free vertex is done; its vertices never start
       a BFS again.
    2. Alive pass, backward over the kept layers: the vertices with a free
       neighbour (which sit at their window's ``found``) and those with an
       entry whose owner is alive one layer deeper.
    3. The shared walk, ``matching._augment``, once per window from its alive
       free roots in the same root and adjacency order, to its ``found``; it
       enters only alive vertices.  In the first phase every window finds at
       layer 0, and the walk is a greedy pass over the roots; numpy runs it
       in rounds, with the same picks and arc pointers.
    4. Dead closure, forward over the kept layers.  The list engine's walk
       would also enter every dead free root, and every dead next-layer
       owner of an entry it read; a dead vertex has only dead next-layer
       owners, so it walks everything those seeds reach, each vertex once
       and in full.  Numpy moves their arc pointers to their ends, and each
       vertex read as far as its arc pointer moved, ``arc - ip[:-1]``.

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
    n_l = windows * n_left
    big = max(m, n_l) + 1  # a layer's window cuts read one past its frontier
    # Per adjacency position: its endpoints.  Per kept entry: its left
    # endpoint and the owner of its neighbour (-1 if free).
    source, targets, src, own = _scratch([m] * 4, i32)
    # Ranks 0, 1, 2, ...; per kept entry, its adjacency position; and four
    # int and two bool temporaries, sized for the largest layer.
    rank, pos, ta, tb, tc, td = _scratch([big] * 6, i32)
    ma, mb = _scratch([big] * 2, bool)
    # Per kept entry: whether the BFS put its owner in the next layer, and
    # after the alive pass, whether that owner is also dead.
    (dead_next,) = _scratch([m], bool)
    # Per left vertex: degree; the frontiers, layer after layer, the roots
    # first; the rank of its first entry as an owner; how many of its
    # entries the DFS reads; BFS layer; the DFS's arc pointer and layer;
    # partner.
    deg, order, first, limit, dist, arc, lvl, ml = _scratch([n_l] * 8, i32)
    has_edges, alive = _scratch([n_l] * 2, bool)
    # Per right vertex: partner, and the first walk's smallest claimant.
    ip, mr, claim = _scratch([n_l + 1, windows * n_right, windows * n_right], i32)
    ip[:], source[:], targets[:] = _csr(keys, n_l, n_right)
    # Each window's right vertices follow those of the windows before it.
    shift = np.floor_divide(source, n_left, out=pos[:m])
    shift *= n_right
    targets += shift
    np.subtract(ip[1:], ip[:-1], out=deg)
    np.greater(deg, 0, out=has_edges)
    rank[:] = np.arange(big, dtype=i32)
    arc[:] = ip[:-1]
    ml.fill(-1)
    mr.fill(-1)
    # The walk reads and writes its state through memoryviews of the scratch:
    # Python ints in and out, and nothing of the walk left on the heap.
    flat, cuts, ptr, level, match_l, match_r = map(memoryview, (targets, ip, arc, lvl, ml, mr))
    wins = np.arange(windows + 1)
    # Per layer k: the windows whose cap keeps them out of it.
    capped: dict[int, list[int]] = {}
    if isinstance(depth_cap, list):
        for w, cap in enumerate(depth_cap):
            if cap != _INF:
                capped.setdefault(int(cap) + 1, []).append(w)
        depth_cap = max(depth_cap)
    # Per window: whether it still augments, and its running totals.
    running = np.ones(windows, dtype=bool)
    phases = np.zeros(windows, dtype=np.int64)
    scans = np.zeros(windows, dtype=np.int64)

    while True:
        # 1. BFS.  Free vertices without edges scan nothing and reach nothing.
        free = np.less(ml, 0, out=ma[:n_l])
        free &= has_edges
        roots = _keep(free, rank[:n_l], order)
        dist.fill(unseen)
        dist[roots] = 0
        first.fill(unseen)  # a vertex is fresh in one layer at most
        frontier = roots
        layers: list[tuple[int, int]] = []  # entry range of each layer
        found = np.full(windows, -1)
        f1 = roots.size
        e0 = 0
        k = 0
        while frontier.size and k <= depth_cap:
            nf = frontier.size
            # tb[:nf + 1]: where each vertex's entries start, then the layer's end.
            tb[0] = 0
            ends = np.add.accumulate(_take(deg, frontier, ta), out=tb[1 : nf + 1])
            n_entries = int(ends[-1])
            e1 = e0 + n_entries
            layers.append((e0, e1))
            # Positions: rank in the layer plus the vertex's run offset,
            # spread over its run by a cumsum of the offset steps.
            offset = _take(ip[1:], frontier, tc)
            offset -= ends
            p = pos[e0:e1]
            p.fill(0)
            p[ends[:-1]] = np.subtract(offset[1:], offset[:-1], out=ta[1:nf])
            p[0] = offset[0]
            np.add.accumulate(p, out=p)
            p += rank[:n_entries]
            _take(source, p, src[e0:])
            o = _take(mr, _take(targets, p, ta), own[e0:])
            # Windows that add nothing to the next frontier.
            stop = capped.get(k + 1, [])
            any_free = o[o.argmin()] < 0
            if stop or any_free:
                # Window w's entries in this layer are [cut[w], cut[w + 1]).
                cut = tb[np.floor_divide(frontier, n_left, out=tc[:nf]).searchsorted(wins)]
            if any_free:
                # The first entry with a free owner, in each window with one.
                at = _keep(np.less(o, 0, out=ma[:n_entries]), rank[:n_entries], tb)
                at_win = np.floor_divide(_take(src[e0:], at, ta), n_left, out=ta[: at.size])
                lead = mb[: at.size]
                lead[0] = True
                np.not_equal(at_win[1:], at_win[:-1], out=lead[1:])
                won = at_win[lead]
                at = at[lead]
                u = src[e0 + at]
                found[won] = k
                # Such a window scans this layer up to the last entry of its
                # first vertex u with a free neighbour.
                scans[won] += at - pos[e0 + at] + ip[u + 1] - cut[won]
                searching = np.greater(cut[1:], cut[:-1])
                searching[won] = False
                if not searching.any():
                    break
                stop = stop + won.tolist()
            k += 1
            if k > depth_cap:
                break
            # Unseen owners, each at its first occurrence, in the windows
            # that found no free vertex yet and may go deeper.
            new = np.equal(_take(dist, o, ta), unseen, out=dead_next[e0:e1])
            for w in stop:
                new[cut[w] : cut[w + 1]] = False
            fresh = _keep(new, o, tc)
            r = rank[: fresh.size]
            np.minimum.at(first, fresh, r)
            lead = _take(first, fresh, ta)
            frontier = _keep(np.equal(lead, r, out=ma[: fresh.size]), fresh, order[f1:])
            f1 += frontier.size
            dist[frontier] = k
            e0 = e1
        # Each window scanned in full every vertex in a layer before its
        # found layer, or in any layer if it found none.
        full = np.less(
            dist.reshape(windows, n_left),
            np.where(found < 0, unseen, found)[:, None],
            out=ma[:n_l].reshape(windows, n_left),
        )
        scans += np.multiply(deg, full.ravel(), out=limit).reshape(windows, n_left).sum(axis=1)
        # A window whose BFS reaches no free vertex stops, as _match does.
        reached = found >= 0
        for w in np.flatnonzero(running & ~reached).tolist():
            has_edges[w * n_left : (w + 1) * n_left] = False
        running &= reached
        if not running.any():
            break
        phases += running
        top = int(found.max())
        stops = set(found.tolist())  # the layers where some window found

        # 2. Alive pass.  At the deepest layer only free owners count; above
        # it, owners the BFS put one layer deeper that are alive.  A free
        # owner (-1) reads as vertex 0, and counts through its own test.
        # What stays in ``dead_next`` are the dead owners one layer deeper.
        alive.fill(False)
        e0, e1 = layers[top]
        alive[_keep(np.less(own[e0:e1], 0, out=ma[: e1 - e0]), src[e0:e1], ta)] = True
        for k in range(top - 1, -1, -1):
            e0, e1 = layers[k]
            o = own[e0:e1]
            deeper = dead_next[e0:e1]
            hit = _take(alive, o, ma)
            hit &= deeper
            if k in stops:
                hit |= np.less(o, 0, out=mb[: o.size])
            alive[_keep(hit, src[e0:e1], ta)] = True
            np.greater(deeper, hit, out=deeper)

        # 3. The walk.  When every window found at layer 0, which happens in
        # the first phase only, the walk goes no deeper than the roots: each
        # root with a free neighbour, in order, takes the first one no earlier
        # root took, and leaves its arc pointer just past it, or at its end.
        # That runs in numpy, in rounds over the candidates, the roots'
        # entries to free vertices in adjacency order.  A root's first
        # candidate is its pick once no smaller root still has that vertex
        # as a candidate (``claim`` holds the smallest), so the smallest root
        # always picks.  Each round drops the candidates of the roots that
        # picked and of the vertices they took.
        if top == 0:
            n0 = layers[0][1]
            s = src[:n0]
            free = np.less(own[:n0], 0, out=mb[:n0])
            cand = _keep(free, pos[:n0], td)
            picker = _keep(free, s, tc)
            arc[picker] = _take(ip[1:], picker, tb)  # read in full if it picks nothing
            rounds = 0
            while cand.size:
                rounds += 1
                k = cand.size
                u = _take(source, cand, ta)
                v = _take(targets, cand, tb)
                claim[v] = n_l
                np.minimum.at(claim, v, u)
                pick = np.equal(_take(claim, v, tc), u, out=ma[:k])
                lead = mb[:k]
                lead[0] = True
                np.not_equal(u[1:], u[:-1], out=lead[1:])
                pick &= lead
                pu = _keep(pick, u, tc)
                pv = _keep(pick, v, src)
                ml[pu] = pv
                mr[pv] = pu
                after = _keep(pick, cand, own)
                after += 1
                arc[pu] = after
                left = np.less(_take(ml, u, tc), 0, out=ma[:k])
                left &= np.less(_take(mr, v, own), 0, out=mb[:k])
                cand = _keep(left, cand, (td, pos)[rounds % 2])
        else:
            # The shared walk, per window; a level of -1 never equals a layer + 1.
            lvl.fill(-1)
            np.putmask(lvl, alive, dist)
        live = _take(alive, roots, ma)
        at = roots.searchsorted(wins * n_left).tolist()
        for w, depth in enumerate(found.tolist()):
            if depth < 0:
                # The window found nothing: it walks nothing, seeds nothing.
                live[at[w] : at[w + 1]] = True
            elif depth > 0:
                start = _keep(live[at[w] : at[w + 1]], roots[at[w] : at[w + 1]], ta)
                _augment(memoryview(start), flat, cuts, ptr, level, match_l, match_r, depth)

        # 4. Dead closure: a reached dead vertex reads all its entries.  The
        # owners of those entries are still the kept ones, as a dead vertex's
        # partner never flips.  ``limit`` counts the entries each vertex
        # read, and their sum is the DFS's scans.
        seed = _keep(np.logical_not(live, out=live), roots, ta)
        arc[seed] = _take(ip[1:], seed, tb)
        for k in range(top):
            e0, e1 = layers[k]
            hit = np.less(pos[e0:e1], _take(arc, src[e0:e1], ta), out=ma[: e1 - e0])
            hit &= dead_next[e0:e1]
            seed = _keep(hit, own[e0:e1], tc)
            arc[seed] = _take(ip[1:], seed, ta)
        np.subtract(arc, ip[:-1], out=limit)
        arc[:] = ip[:-1]  # rewound for the next phase
        scans += limit.reshape(windows, n_left).sum(axis=1)
    matched = np.greater_equal(ml, 0, out=ma[:n_l]).reshape(windows, n_left)
    return ml, mr, np.count_nonzero(matched, axis=1).tolist(), phases.tolist(), scans.tolist()
