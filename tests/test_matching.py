"""Matching core against brute force, plus depth-cap semantics.

Tests that take ``matching_engines`` check both of ``_match``'s phase
engines, and ``test_engines_agree`` checks that they agree exactly.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from recsubgraph import (
    ErdosRenyiSpec,
    FixedDegreeSpec,
    ProblemParams,
    SolverConfig,
    _layered,
    bounded_matching,
    build_graph,
    gen_erdos_renyi,
    gen_fixed_degree,
    hopcroft_karp,
    matching,
    partition_with_stats,
)
from conftest import brute_force_max_matching, chain_graph, partition_windows, random_simple_graph


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
        ml, mr, size, phases, scans = matching._match(keys, n_left, n_right, cap)
        out.append((ml.tolist(), mr.tolist(), size, phases, scans))
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
    g = gen_erdos_renyi(ErdosRenyiSpec(l=3000, r=3000, p=8 / 3000, seed=301))
    cfg = SolverConfig(params=ProblemParams(c=3, a=2), seed=301)
    keys, n_left, n_right, cap, _ = partition_windows(monkeypatch, g, cfg)[0]
    assert n_left >= matching._LAYERED_MIN and keys.size > 5000
    listed, layered = _both_engines(matching_engines, keys, n_left, n_right, cap)
    assert listed[3] > 5  # enough phases to leave dead vertices behind
    assert listed == layered


# Both phase engines take a whole window set in one call.
_WINDOW_SET_ENGINES = (matching._list_match, _layered.match_layered)


def _batched(engine, windows, n_left, n_right, cap):
    """One ``engine`` call over ``windows``, split back per window."""
    span = n_left * n_right
    keys = np.concatenate([k + i * span for i, k in enumerate(windows)])
    depth_cap = math.inf if cap is None else (cap - 1) // 2
    ml, mr, size, phases, scans = engine(keys, n_left, n_right, depth_cap, len(windows))
    out = []
    for i in range(len(windows)):
        left = ml[i * n_left : (i + 1) * n_left].tolist()
        right = mr[i * n_right : (i + 1) * n_right].tolist()
        left = [v - i * n_right if v >= 0 else -1 for v in left]
        right = [u - i * n_left if u >= 0 else -1 for u in right]
        out.append((left, right, size[i], phases[i], scans[i]))
    return out


def _one_list_call_each(monkeypatch, windows, n_left, n_right, cap):
    monkeypatch.setattr(matching, "_LAYERED_MIN", sys.maxsize)
    out = []
    for keys in windows:
        ml, mr, size, phases, scans = matching._match(keys, n_left, n_right, cap)
        out.append((ml.tolist(), mr.tolist(), size, phases, scans))
    return out


@st.composite
def _window_sets(draw):
    """One to five graphs on the same sides, as partition's windows are."""
    n_left = draw(st.integers(0, 14))
    n_right = draw(st.integers(0, 14))
    pairs = st.tuples(st.integers(0, max(n_left - 1, 0)), st.integers(0, max(n_right - 1, 0)))
    edges = st.lists(pairs, max_size=60) if n_left and n_right else st.just([])
    windows = draw(st.lists(edges, min_size=1, max_size=5))
    return n_left, n_right, [build_graph(n_left, n_right, e).distinct_keys() for e in windows]


# In the second phase window 2 finds a free vertex a layer before window 0
# does.  Its free owners (-1) then sit among the entries the dead closure
# reads for window 0, and counting one as a vertex changes window 2's scans.
_EARLY_FINISH = (
    5,
    6,
    [
        np.array([2, 6, 8, 9, 12, 19, 26, 27, 28]),
        np.array([0, 3, 7, 13, 15, 18, 22, 25, 27]),
        np.array([0, 4, 8, 9, 10, 12, 13, 16, 17, 19, 28]),
    ],
)


@given(ws=_window_sets(), cap=st.sampled_from([None, 1, 3, 5, 7]))
@example(ws=_EARLY_FINISH, cap=None)
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_batched_windows_match_one_list_call_each(monkeypatch, ws, cap):
    # Each window keeps its own found layer, walk and scans, so sharing the
    # phase loop changes nothing any window would get alone.
    n_left, n_right, windows = ws
    want = _one_list_call_each(monkeypatch, windows, n_left, n_right, cap)
    for engine in _WINDOW_SET_ENGINES:
        assert _batched(engine, windows, n_left, n_right, cap) == want


@pytest.mark.parametrize("cap", [None, 1, 3, 5, 7])
def test_batched_windows_finish_in_different_phases(monkeypatch, cap):
    # A chain whose second phase needs a 17-edge augmenting path, a window
    # with no edges, a window solved in its first phase, and one whose free
    # roots reach nothing after it.  They leave the phase loop at different
    # phases: the empty window first, the chain last when no cap stops it.
    n = 9
    windows = [
        chain_graph(n).distinct_keys(),
        np.zeros(0, dtype=np.int64),
        build_graph(n, n, [(4, 2)]).distinct_keys(),
        build_graph(n, n, [(0, 1), (3, 1), (5, 1)]).distinct_keys(),
    ]
    want = _one_list_call_each(monkeypatch, windows, n, n, cap)
    assert [w[3] for w in want] == [2 if cap is None else 1, 0, 1, 1]
    for engine in _WINDOW_SET_ENGINES:
        assert _batched(engine, windows, n, n, cap) == want
        assert _batched(engine, windows[:1], n, n, cap) == want[:1]


def _per_window_caps(keys, n_left, n_right, caps):
    """One ``_match`` call over ``keys``' windows, each at its own cap, and
    one one-window call per window; both split into per-window tuples."""
    span = n_left * n_right
    joined = np.concatenate([k + i * span for i, k in enumerate(keys)])
    ml, mr, size, phases, scans = matching._match(joined, n_left, n_right, caps, len(keys))
    together, alone = [], []
    for i, (k, cap) in enumerate(zip(keys, caps)):
        left = ml[i * n_left : (i + 1) * n_left]
        right = mr[i * n_right : (i + 1) * n_right]
        left = np.where(left >= 0, left - i * n_right, -1).tolist()
        right = np.where(right >= 0, right - i * n_left, -1).tolist()
        together.append((left, right, size[i], phases[i], scans[i]))
        one = matching._match(k, n_left, n_right, cap)
        alone.append((one[0].tolist(), one[1].tolist(), *one[2:]))
    return together, alone


@pytest.mark.parametrize("caps", [[1, 3, None], [None, 3, 1], [3, None, 1, 3, 1]])
def test_per_window_caps_match_one_call_each(matching_engines, caps):
    # Chains whose second phase needs a 17-edge path: a cap of 1 or 3 stops
    # a window after its first phase, no cap lets it finish.  Each window
    # must stop at its own cap, as a one-window call with that cap does.
    n = 9
    keys = [chain_graph(n).distinct_keys()] * len(caps)
    for _ in matching_engines():
        together, alone = _per_window_caps(keys, n, n, caps)
        assert together == alone
        assert [w[3] for w in alone] == [1 if cap else 2 for cap in caps]


@given(ws=_window_sets(), data=st.data())
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_per_window_caps_on_random_window_sets(matching_engines, ws, data):
    n_left, n_right, windows = ws
    n = len(windows)
    caps = data.draw(st.lists(st.sampled_from([None, 1, 3, 5]), min_size=n, max_size=n))
    for _ in matching_engines():
        together, alone = _per_window_caps(windows, n_left, n_right, caps)
        assert together == alone


def _on_both_engines(monkeypatch, g, cfg):
    """Partition's selection bytes and ``edges_touched``, first with every
    window on the list engine, then with all of them in one batched call."""
    out = []
    for threshold in (sys.maxsize, 0):
        monkeypatch.setattr(matching, "_LAYERED_MIN", threshold)
        sel, stats = partition_with_stats(g, cfg)
        out.append((sel.indptr.tobytes(), sel.targets.tobytes(), stats.edges_touched))
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    ca=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)]),
    epsilon=st.sampled_from([0.1, 0.5, 1.0]),
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_partition_hand_over_keeps_selection_and_scans(monkeypatch, seed, ca, epsilon):
    rng = np.random.default_rng(seed)
    l, r = (int(x) for x in rng.integers(1, 40, size=2))
    m = int(rng.integers(0, 4 * (l + r)))
    g = build_graph(l, r, list(zip(rng.integers(0, l, m).tolist(), rng.integers(0, r, m).tolist())))
    cfg = SolverConfig(params=ProblemParams(*ca), seed=seed, epsilon=epsilon)
    listed, layered = _on_both_engines(monkeypatch, g, cfg)
    assert listed == layered


def test_partition_hand_over_with_thousands_of_windows(monkeypatch):
    # 2000 windows over 40 targets and 60 edges: almost every window is
    # empty, so most leave the batched phase loop at once, and the engine's
    # per-window Python loops run 2000 times a phase.
    g = gen_fixed_degree(FixedDegreeSpec(l=20, r=40, d=3, seed=0))
    cfg = SolverConfig(params=ProblemParams(c=2000, a=1), seed=0)
    assert len(partition_windows(monkeypatch, g, cfg)) == 2000
    listed, layered = _on_both_engines(monkeypatch, g, cfg)
    assert listed == layered


@pytest.mark.parametrize("c, a", [(1, 1), (2, 2), (3, 2), (9, 1)])
def test_partition_at_the_sweep_shape_dispatches_by_window_set_size(monkeypatch, c, a):
    # The sweep's graph: 500 sources, so each window is below _LAYERED_MIN,
    # but with c >= 2 the window set, c * l, is not.
    g = gen_fixed_degree(FixedDegreeSpec(l=500, r=2000, d=20, seed=1))
    cfg = SolverConfig(params=ProblemParams(c=c, a=a), seed=1)
    listed, layered = _on_both_engines(monkeypatch, g, cfg)
    assert listed == layered
    monkeypatch.undo()
    assert _engine_calls(monkeypatch, g, cfg) == (listed[2], ["list"] if c == 1 else ["layered"])


def test_partition_at_the_certify_shape_makes_one_list_call(monkeypatch):
    # Three windows of 16 sources, far below _LAYERED_MIN in all: the list
    # engine takes the whole window set in one call, as the layered one does.
    g = gen_fixed_degree(FixedDegreeSpec(l=16, r=16, d=3, seed=1))
    cfg = SolverConfig(params=ProblemParams(c=3, a=2), seed=1)
    listed, layered = _on_both_engines(monkeypatch, g, cfg)
    assert listed == layered
    monkeypatch.undo()
    assert _engine_calls(monkeypatch, g, cfg) == (layered[2], ["list"])


def _engine_calls(monkeypatch, g, cfg):
    """Partition's ``edges_touched`` at the default threshold, and the
    phase engine calls it made, in order."""
    calls = []

    def spy(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    monkeypatch.setattr(_layered, "match_layered", spy("layered", _layered.match_layered))
    monkeypatch.setattr(matching, "_list_match", spy("list", matching._list_match))
    return partition_with_stats(g, cfg)[1].edges_touched, calls
