"""Matching core against brute force, plus depth-cap semantics.

Tests that take ``matching_engines`` check both of ``_match``'s phase
engines, and ``test_engines_agree`` checks that they agree exactly.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from recsubgraph import (
    ErdosRenyiSpec,
    ProblemParams,
    SolverConfig,
    bounded_matching,
    build_graph,
    gen_erdos_renyi,
    hopcroft_karp,
    matching,
    partition_with_stats,
    solvers,
)
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


def test_matches_brute_force_on_200_random_graphs(rng, matching_engines):
    graphs = [random_simple_graph(rng) for _ in range(200)]
    for _ in matching_engines():
        for g in graphs:
            got = hopcroft_karp(g)
            _assert_valid(g, got)
            assert got.size == brute_force_max_matching(g)


def test_phase_count_bound(rng, matching_engines):
    graphs = [random_simple_graph(rng, max_l=8, max_r=8, p=0.5) for _ in range(100)]
    for _ in matching_engines():
        for g in graphs:
            got = hopcroft_karp(g)
            assert got.phases <= 2 * math.sqrt(g.l + g.r) + 2


def test_bounded_requires_odd_cap():
    # A nan cap used to run uncapped: size 2 on this graph, where cap 1 gives 1.
    g = build_graph(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert bounded_matching(g, 1).size == 1
    for cap in (2, 0, -1, float("nan"), float("inf"), 2.5, 3.0, True, False, "3", None):
        with pytest.raises(ValueError, match="max_path_len must be an odd integer >= 1"):
            bounded_matching(g, cap)


def test_bounded_cap_one_is_maximal(matching_engines):
    # No augmenting path of length 1 means no edge with both ends free.
    rng = np.random.default_rng(7)
    graphs = [random_simple_graph(rng) for _ in range(100)]
    for _ in matching_engines():
        for g in graphs:
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


def _both_engines(matching_engines, keys, n_left, n_right, cap):
    """``_match``'s full output on each engine, as comparable tuples."""
    out = []
    for _ in matching_engines():
        got, scans = matching._match(keys, n_left, n_right, cap)
        out.append((got.match_l, got.match_r, got.size, got.phases, scans))
    return out


@st.composite
def _multigraphs(draw):
    l = draw(st.integers(0, 40))
    r = draw(st.integers(0, 40))
    pairs = st.tuples(st.integers(0, max(l - 1, 0)), st.integers(0, max(r - 1, 0)))
    edges = draw(st.lists(pairs, max_size=160)) if l and r else []
    return build_graph(l, r, edges)


@given(g=_multigraphs(), cap=st.sampled_from([None, 1, 3, 5, 7]))
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_engines_agree(matching_engines, g, cap):
    # Same partners, sizes, phases and scans: the layered engine only moves
    # work into numpy, it never changes what the list engine does.
    listed, layered = _both_engines(matching_engines, g.distinct_keys(), g.l, g.r, cap)
    assert listed == layered


def test_engines_agree_on_a_partition_window(monkeypatch, matching_engines):
    # One window as partition hands it over, large enough that the layered
    # engine is the one that runs by default.
    windows = []

    def spy(keys, n_left, n_right, cap):
        windows.append((keys, n_left, n_right, cap))
        return real(keys, n_left, n_right, cap)

    real = solvers._match
    monkeypatch.setattr(solvers, "_match", spy)
    g = gen_erdos_renyi(ErdosRenyiSpec(l=3000, r=3000, p=8 / 3000, seed=301))
    partition_with_stats(g, SolverConfig(params=ProblemParams(c=3, a=2), seed=301))
    keys, n_left, n_right, cap = windows[0]
    assert n_left >= matching._LAYERED_MIN and keys.size > 5000
    listed, layered = _both_engines(matching_engines, keys, n_left, n_right, cap)
    assert listed[3] > 5  # enough phases to leave dead vertices behind
    assert listed == layered
