"""Matching core against brute force, plus depth-cap semantics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recsubgraph import bounded_matching, build_graph, hopcroft_karp
from conftest import brute_force_max_matching, random_simple_graph


def test_identity_graph():
    g = build_graph(5, 5, [(i, i) for i in range(5)])
    got = hopcroft_karp(g)
    assert got.size == 5
    assert got.match_l == list(range(5))


def test_three_edge_path():
    g = build_graph(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert hopcroft_karp(g).size == 2


def test_empty_graph():
    got = hopcroft_karp(build_graph(3, 2, []))
    assert got.size == 0
    assert got.match_l == [-1, -1, -1]


def test_parallel_edges_ignored():
    g = build_graph(2, 2, [(0, 0), (0, 0), (0, 1), (1, 0)])
    assert hopcroft_karp(g).size == 2


def _assert_valid(graph, got):
    seen = set()
    edges = set(graph.edge_list())
    for u, v in enumerate(got.match_l):
        if v >= 0:
            assert got.match_r[v] == u
            assert (u, v) in edges
            assert v not in seen
            seen.add(v)
    assert sum(1 for v in got.match_l if v >= 0) == got.size
    assert sum(1 for u in got.match_r if u >= 0) == got.size


def test_matches_brute_force_on_200_random_graphs(rng):
    for _ in range(200):
        g = random_simple_graph(rng)
        got = hopcroft_karp(g)
        _assert_valid(g, got)
        assert got.size == brute_force_max_matching(g)


def test_phase_count_bound(rng):
    for _ in range(100):
        g = random_simple_graph(rng, max_l=8, max_r=8, p=0.5)
        got = hopcroft_karp(g)
        assert got.phases <= 2 * math.sqrt(g.l + g.r) + 2


def test_bounded_requires_odd_cap():
    g = build_graph(1, 1, [(0, 0)])
    with pytest.raises(ValueError):
        bounded_matching(g, 2)
    with pytest.raises(ValueError):
        bounded_matching(g, 0)


def test_bounded_cap_one_is_maximal():
    # No augmenting path of length 1 means no edge with both ends free.
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = random_simple_graph(rng)
        got = bounded_matching(g, 1)
        free_l = {u for u, v in enumerate(got.match_l) if v < 0}
        free_r = {v for v, u in enumerate(got.match_r) if u < 0}
        for u, v in g.edge_list():
            assert u not in free_l or v not in free_r


def test_bounded_monotone_and_reaches_maximum(rng):
    for _ in range(200):
        g = random_simple_graph(rng)
        best = hopcroft_karp(g).size
        prev = 0
        for cap in (1, 3, 5, 7):
            size = bounded_matching(g, cap).size
            assert size >= prev
            prev = size
        big_cap = 2 * max(1, best) - 1
        assert bounded_matching(g, big_cap).size == best


def test_bounded_quality_guarantee(rng):
    # No augmenting path of <= 2*alpha-1 edges puts the matching within 1-1/alpha.
    for _ in range(100):
        g = random_simple_graph(rng, max_l=8, max_r=8, p=0.35)
        best = hopcroft_karp(g).size
        for alpha in (1, 2, 3):
            size = bounded_matching(g, 2 * alpha - 1).size
            assert size >= (1 - 1 / alpha) * best - 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_matching_sizes_agree_with_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)
    l, r = (int(x) for x in rng.integers(1, 25, size=2))
    m = int(rng.integers(0, 3 * (l + r)))
    # Drawn with replacement, so multigraphs with parallel edges occur.
    eu = rng.integers(0, l, size=m)
    ev = rng.integers(0, r, size=m)
    g = build_graph(l, r, list(zip(eu.tolist(), ev.tolist())))
    ref = nx.Graph()
    ref.add_nodes_from(("u", u) for u in range(l))
    ref.add_nodes_from(("v", v) for v in range(r))
    ref.add_edges_from((("u", u), ("v", v)) for u, v in g.edge_list())
    top = [("u", u) for u in range(l)]
    best = len(nx.algorithms.bipartite.hopcroft_karp_matching(ref, top)) // 2
    assert hopcroft_karp(g).size == best
    # No augmenting path of <= 2k+1 edges leaves every one with >= k+1
    # matched edges, which puts the matching within (k+1)/(k+2) of maximum.
    for k in range(4):
        assert (k + 2) * bounded_matching(g, 2 * k + 1).size >= (k + 1) * best
