"""The three selection strategies: laws, invariants, worked examples."""
import hashlib
import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from recsubgraph import (
    BipartiteGraph,
    ConfigError,
    ErdosRenyiSpec,
    FixedDegreeSpec,
    ProblemParams,
    RecSubgraph,
    SolverConfig,
    bounded_matching,
    build_graph,
    coverage,
    exact_opt,
    gen_erdos_renyi,
    gen_fixed_degree,
    greedy_expected_bound,
    greedy_with_stats,
    hopcroft_karp,
    partition_with_stats,
    sampling_with_stats,
    solve,
    upper_bound_estimate,
    validate,
)
from recsubgraph import _waves as waves, matching, solvers
from recsubgraph.generate import STREAM_SAMPLING, philox_stream
from conftest import partition_windows, random_simple_graph


def _cfg(c, a, seed=0, **kw):
    return SolverConfig(params=ProblemParams(c=c, a=a), seed=seed, **kw)


# ---------------------------------------------------------------- sampling


def test_sampling_keeps_everything_when_budget_covers_degrees():
    g = build_graph(3, 4, [(0, 0), (0, 1), (1, 2), (2, 3), (2, 0)])
    sub, _ = sampling_with_stats(g, _cfg(2, 1))
    assert sorted(sub.edge_list()) == sorted(g.edge_list())


def test_sampling_single_edge():
    g = build_graph(1, 1, [(0, 0)])
    sub, _ = sampling_with_stats(g, _cfg(1, 1))
    assert sub.edge_list() == [(0, 0)]
    assert coverage(g, sub, 1) == 1


def test_sampling_respects_cap_and_candidates(rng):
    for _ in range(100):
        g = random_simple_graph(rng)
        c = int(rng.integers(1, 4))
        sub, _ = sampling_with_stats(g, _cfg(c, 1, seed=int(rng.integers(2**32))))
        assert validate(g, sub, ProblemParams(c=c, a=1)) == []
        # Every source with degree >= c uses its full budget.
        for u in range(g.l):
            assert sub.out_degrees()[u] == min(c, g.left_degrees[u])


def test_sampling_picks_uniform_subsets():
    # One source, four candidates, budget two: each of the 6 pairs should
    # appear with frequency 1/6.
    g = build_graph(1, 4, [(0, v) for v in range(4)])
    counts = {}
    n = 6000
    for seed in range(n):
        sub, _ = sampling_with_stats(g, _cfg(2, 1, seed=seed))
        key = tuple(sorted(v for _, v in sub.edge_list()))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for key, cnt in counts.items():
        # 4 sigma of Binomial(6000, 1/6).
        assert abs(cnt - n / 6) <= 4 * math.sqrt(n * (1 / 6) * (5 / 6)), (key, cnt)


def test_sampling_subsets_pass_chi_square():
    # Source 1 has five candidates and budget two, between two other sources
    # so that its keys come from the middle of the stream.  All 10 pairs are
    # equally likely: Pearson's statistic over 2000 seeds stays below 27.877,
    # the 0.999 quantile of chi-square with 9 degrees of freedom (p > 0.001).
    edges = [(0, 0), (0, 1)] + [(1, v) for v in range(5)] + [(2, 3), (2, 4)]
    g = build_graph(3, 5, edges)
    n = 2000
    counts = {pair: 0 for pair in itertools.combinations(range(5), 2)}
    for seed in range(n):
        sub, _ = sampling_with_stats(g, _cfg(2, 1, seed=seed))
        counts[tuple(v for u, v in sub.edge_list() if u == 1)] += 1
    expected = n / len(counts)
    stat = sum((cnt - expected) ** 2 / expected for cnt in counts.values())
    assert stat < 27.877, counts


def test_sampling_coverage_law():
    # Mean coverage over seeds tracks r(1 - e^{-ck}) within 2%.
    l, r, d, c = 600, 600, 12, 3
    ck = c * l / r
    law = 1 - math.exp(-ck)
    fracs = []
    for seed in range(40):
        g = gen_fixed_degree(FixedDegreeSpec(l=l, r=r, d=d, seed=seed))
        sub, _ = sampling_with_stats(g, _cfg(c, 1, seed=seed))
        fracs.append(coverage(g, sub, 1) / r)
    assert abs(statistics.fmean(fracs) - law) < 0.02


def test_sampling_deterministic():
    g = gen_fixed_degree(FixedDegreeSpec(l=50, r=40, d=5, seed=3))
    a = sampling_with_stats(g, _cfg(2, 1, seed=9))[0].edge_list()
    b = sampling_with_stats(g, _cfg(2, 1, seed=9))[0].edge_list()
    c = sampling_with_stats(g, _cfg(2, 1, seed=10))[0].edge_list()
    assert a == b
    assert a != c


@pytest.mark.parametrize("l", [2**16, 2**16 + 1, 200_000, 2**20 + 1])
def test_sampling_sorts_wide_source_ranges(l):
    # Sources on both sides of 2**16 that share their low 16 bits, so a sort
    # that dropped the high bits of the source would mix their candidates.
    # At l = 2**20 + 1 the sort keeps 42 key bits, below the 53 drawn.
    rng = np.random.default_rng(l)
    low = rng.integers(0, 2**16, size=300)
    us = np.concatenate([low, (low + 2**16) % l, rng.integers(0, l, size=600)])
    us = np.repeat(us, rng.integers(1, 6, size=us.size))
    vs = rng.integers(0, 50, size=us.size)
    g = build_graph(l, 50, zip(us.tolist(), vs.tolist()))
    c = 2
    sub, _ = sampling_with_stats(g, _cfg(c, 1, seed=5))
    # Reference: each source's edges in key order, by one lexsort.
    keys = philox_stream(5, STREAM_SAMPLING).random(g.m)
    order = np.lexsort((keys, g.edge_u))
    rank = np.arange(g.m) - np.repeat(g.indptr_l[:-1], g.left_degrees)
    kept = order[rank < c]
    expected = sorted(set(zip(g.edge_u[kept].tolist(), g.edge_v[kept].tolist())))
    assert sub.edge_list() == expected


def _rank_order(edge_u, keys53, l):
    """``solvers._by_source_then_key`` on 53-bit integer keys."""
    keys = np.asarray(keys53, dtype=np.float64) * 2.0**-53
    return solvers._by_source_then_key(np.asarray(edge_u, dtype=np.int64), keys, l).tolist()


def test_rank_order_keeps_edge_order_on_ties_at_widest_sides():
    # l = 2**31 - 1 leaves 32 bits for the key: keys that agree in their top
    # 32 of 53 bits tie and keep edge order, whatever their low 21 bits say.
    l = 2**31 - 1
    high = 0x1234_5678 << 21
    assert _rank_order([7, 7, 7], [high + 5, high + 3, high], l) == [0, 1, 2]
    assert _rank_order([7, 7], [high, high + 2**21 - 1], l) == [0, 1]


def test_rank_order_follows_the_key_within_each_source():
    l = 2**31 - 1
    # One bit apart at bit 21, the lowest bit the sort keeps.
    assert _rank_order([3, 3], [2**21, 0], l) == [1, 0]
    # Sources at both ends of the range: each keeps its own segment,
    # ranked by key, even when a smaller source has larger keys.
    us = [0, 0, 0, l - 2, l - 2, l - 1, l - 1]
    ks = [2**53 - 1, 0, 2**52, 2**40, 1 << 21, 2**53 - 2**21, 0]
    assert _rank_order(us, ks, l) == [1, 2, 0, 4, 3, 6, 5]


def test_rank_order_matches_lexsort_on_random_segments():
    rng = np.random.default_rng(0)
    l = 2**31 - 1
    us = np.sort(rng.choice([0, 1, 2**20, 2**30, l - 1], size=400))
    ks = rng.integers(0, 2**53, size=400)
    ks[::7] = ks[0]  # exact ties across and within sources
    want = np.lexsort((np.arange(400), ks >> 21, us)).tolist()
    assert _rank_order(us, ks, l) == want


# ------------------------------------------------------------------ greedy


def test_greedy_edgeless():
    g = build_graph(3, 3, [])
    sub, _ = greedy_with_stats(g, _cfg(1, 1))
    assert sub.edge_list() == []


def test_greedy_two_sources_one_shared_target():
    # Both sources reach v=0; only one of them also reaches v=1.  With a=2
    # the shared target is completed first and the other stays uncovered.
    g = build_graph(2, 2, [(0, 0), (0, 1), (1, 0)])
    sub, _ = greedy_with_stats(g, _cfg(1, 2))
    assert coverage(g, sub, 2) == 1
    assert sorted(sub.edge_list()) == [(0, 0), (1, 0)]


def test_greedy_covered_targets_get_exactly_a():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = random_simple_graph(rng)
        c = int(rng.integers(1, 4))
        a = int(rng.integers(1, 4))
        sub, _ = greedy_with_stats(g, _cfg(c, a))
        assert validate(g, sub, ProblemParams(c=c, a=a)) == []
        indeg = np.zeros(g.r, dtype=int)
        for _, v in sub.edge_list():
            indeg[v] += 1
        assert set(indeg.tolist()) <= {0, a}


def test_greedy_capacity_tiebreak_prefers_fresh_sources():
    # v=0 first burns capacity of u=0; at v=1 the fresh source u=1 is
    # preferred over the partly used u=0.
    g = build_graph(2, 2, [(0, 0), (0, 1), (1, 1)])
    sub, _ = greedy_with_stats(g, _cfg(2, 1))
    assert (1, 1) in sub.edge_list()
    assert (0, 1) not in sub.edge_list()


def test_greedy_meets_expected_bound():
    # Mean coverage across seeds dominates the analytic lower bound
    # (up to sampling noise) for a few parameter points.
    cases = [(1, 1, 300, 300, 0.02), (2, 2, 300, 300, 0.02), (3, 2, 200, 260, 0.03)]
    for c, a, l, r, p in cases:
        d = max(1, round(p * r))
        vals = []
        for seed in range(60):
            g = gen_fixed_degree(FixedDegreeSpec(l=l, r=r, d=d, seed=seed))
            sub, _ = greedy_with_stats(g, _cfg(c, a, seed=seed))
            vals.append(coverage(g, sub, a))
        bound = greedy_expected_bound(l=l, r=r, c=c, a=a, p=d / r)
        mean = statistics.fmean(vals)
        sem = statistics.stdev(vals) / math.sqrt(len(vals))
        assert mean >= bound - 3 * sem, (c, a, mean, bound)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_greedy_indegrees_zero_or_a(seed):
    rng = np.random.default_rng(seed)
    g = random_simple_graph(rng, max_l=6, max_r=6, p=0.5)
    c = int(rng.integers(1, 4))
    a = int(rng.integers(1, 4))
    sub, _ = greedy_with_stats(g, _cfg(c, a, seed=seed))
    indeg = np.zeros(g.r, dtype=int)
    for _, v in sub.edge_list():
        indeg[v] += 1
    assert set(indeg.tolist()) <= {0, a}


def _greedy_reference(l, r, edges, c, a):
    """Greedy as its docstring states it, one target at a time."""
    used = [0] * l
    picks = []
    for v in range(r):
        spare = sorted({u for u, w in edges if w == v and used[u] < c})
        if len(spare) < a:
            continue
        spare.sort(key=lambda u: (used[u], u))
        for u in spare[:a]:
            used[u] += 1
            picks.append((u, v))
    return sorted(picks)


@st.composite
def _greedy_case(draw):
    # Few sources, at least one edge per target on average, and a < c most
    # of the time: a target then often has more than a spare sources with
    # different spent budgets, where least-spent-first and index order part
    # ways.
    l = draw(st.integers(1, 5))
    r = draw(st.integers(1, 16))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, l - 1), st.integers(0, r - 1)), min_size=r, max_size=80
        )
    )
    return l, r, edges, draw(st.integers(1, 5)), draw(st.integers(1, 3))


@given(_greedy_case(), st.integers(0, 2**32 - 1))
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_greedy_matches_reference(greedy_engines, case, seed):
    l, r, edges, c, a = case
    g = build_graph(l, r, edges)
    cfg = _cfg(c, a, seed=seed)  # greedy ignores the seed; the reference has none
    expected = _greedy_reference(l, r, edges, c, a)
    for _ in greedy_engines():
        sub, stats = greedy_with_stats(g, cfg)
        assert sub.edge_list() == expected
        assert (stats.edges_touched, stats.peak_aux) == (g.m, l)


@pytest.mark.parametrize(
    "make, spec",
    [
        (gen_erdos_renyi, ErdosRenyiSpec(l=5000, r=5000, p=2e-3, seed=41)),
        # Many parallel edges: 20 draws per source over 600 targets.
        (gen_fixed_degree, FixedDegreeSpec(l=2000, r=600, d=20, seed=42)),
    ],
    ids=["erdos-renyi", "fixed-degree-multigraph"],
)
def test_greedy_engines_agree_at_scale(make, spec, greedy_engines):
    # Thousands of targets per wave and full sources passing their remaining
    # targets in bulk: the waves must still reproduce the loop bit for bit.
    graph = make(spec)
    assert graph.distinct_keys().size > 20000
    for c, a in ((1, 1), (3, 2), (4, 3)):
        got = [greedy_with_stats(graph, _cfg(c, a))[0] for _ in greedy_engines()]
        assert got[0].n_selected > 0
        assert np.array_equal(got[0].indptr, got[1].indptr)
        assert np.array_equal(got[0].targets, got[1].targets)


def _batched(graph, algo, configs):
    """``(selection, counters, report)`` of each of ``configs`` as
    ``_solve_cells`` makes them, in its batches."""
    made = []
    real = solvers._selections

    def spy(graph, found):
        out = real(graph, found)
        made.extend(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_selections", spy)
        got = list(solvers._solve_cells(graph, algo, configs))
    assert [sel for sel, _ in got] == [sel for sel, _ in made]
    return [(sel, stats, report) for (sel, stats), (_, report) in zip(made, got)]


def test_batched_greedy_equals_per_cell_greedy(rng, greedy_engines, monkeypatch):
    # Each cell of a batch must come out as it does alone.  On the wave
    # engine a batch is one pass over copies of the graph, one per cell.
    graphs = [build_graph(4, 5, []), build_graph(0, 5, []), build_graph(3, 0, [])]
    for _ in range(30):
        l, r = (int(x) for x in rng.integers(1, 16, size=2))
        graphs.append(_multigraph(rng, l, r, int(rng.integers(1, 4 * (l + r)))))
    calls = []  # the cells of each wave pass

    def spy(graph, cells):
        calls.append(len(cells))
        return real(graph, cells)

    real = waves.greedy_waves
    monkeypatch.setattr(waves, "greedy_waves", spy)
    for engine in greedy_engines():
        for g in graphs:
            max_in = int(g.distinct_in_degrees().max(initial=0))
            max_out = int(g.left_degrees.max(initial=0))
            cells = [
                (1, 1),
                (2, max_in + 1),  # a above every in-degree
                (max(max_out, 1), 1),  # c at the largest out-degree
                (max_out + 3, 2),
                (2, 1),
                (3, 2),
                (2, 1),  # a repeated cell
                (2**63 - 1, 3),  # the tie key must not grow with c
            ]
            configs = [_cfg(c, a) for c, a in cells]
            alone = [greedy_with_stats(g, config) for config in configs]
            size = g.l + g.r + g.distinct_keys().size
            for bound, most in ((len(cells) * size, len(cells)), (3 * size, 3)):
                monkeypatch.setattr(solvers, "_WAVES_BATCH_MAX", bound)
                calls.clear()
                got = _batched(g, "greedy", configs)
                if engine == "waves":
                    assert sum(calls) == len(cells) and max(calls) == most
                else:
                    assert calls == []
                assert len(got) == len(cells)
                for (sel, stats, report), (ref, ref_stats), (_, a) in zip(got, alone, cells):
                    assert sel._keys.tolist() == ref._keys.tolist()
                    assert (stats.edges_touched, stats.peak_aux) == (
                        ref_stats.edges_touched,
                        ref_stats.peak_aux,
                    )
                    assert report.covered == coverage(g, ref, a)
                    assert report.peak_edges_held == ref_stats.peak_aux


# --------------------------------------------------------------- partition


def test_partition_complete_graph():
    g = build_graph(4, 4, [(u, v) for u in range(4) for v in range(4)])
    sub, _ = partition_with_stats(g, _cfg(1, 1))
    assert coverage(g, sub, 1) == 4


def test_partition_edgeless():
    g = build_graph(4, 4, [])
    sub, _ = partition_with_stats(g, _cfg(2, 1))
    assert sub.edge_list() == []


def test_partition_rejects_a_above_c():
    g = build_graph(4, 4, [(0, 0)])
    with pytest.raises(ConfigError):
        partition_with_stats(g, _cfg(1, 2))


def test_partition_refuses_c_times_l_past_int32():
    # Its windows hold c * l sources: at 2**31 the layout alone would need
    # about 16 GB, and the layered engine numbers them in int32.
    g = build_graph(1, 3, [(0, 0), (0, 2)])
    with pytest.raises(ConfigError, match=r"c \* l < 2\*\*31"):
        solve(g, "partition", _cfg(2**31, 1))


def test_partition_output_valid(rng):
    for _ in range(100):
        g = random_simple_graph(rng)
        c = int(rng.integers(1, 4))
        a = int(rng.integers(1, c + 1))
        seed = int(rng.integers(2**32))
        sub, _ = partition_with_stats(g, _cfg(c, a, seed=seed))
        assert validate(g, sub, ProblemParams(c=c, a=a)) == []
    # |R'| = 16 and windows of 3 start 1 apart, so positions 13-15 of R' lie
    # in no window; edges to them must not be routed into a neighbour's.
    g = gen_erdos_renyi(ErdosRenyiSpec(3, 40, 0.3, seed=0))
    sub, _ = partition_with_stats(g, _cfg(11, 2, seed=0))
    assert validate(g, sub, ProblemParams(c=11, a=2)) == []


def test_partition_near_full_coverage_at_threshold():
    # l*c = a*r exactly: most targets should be covered on a dense graph.
    l = r = 500
    c = a = 2
    g = gen_fixed_degree(FixedDegreeSpec(l=l, r=r, d=20, seed=1))
    sub, _ = partition_with_stats(g, _cfg(c, a, seed=1, epsilon=0.1))
    cov = coverage(g, sub, a)
    assert cov >= (1 - 3 * 0.1) * r


@pytest.mark.parametrize("c, a", [(2, 1), (3, 2), (5, 2)])
def test_partition_epsilon_past_float_range_drops_the_cap(c, a):
    # c / 1e-320 overflows to inf; no path in a window is that long, so the
    # selection is that of a finite tiny epsilon.
    g = gen_fixed_degree(FixedDegreeSpec(l=300, r=900, d=8, seed=1))
    tiny, tiny_stats = partition_with_stats(g, _cfg(c, a, seed=3, epsilon=1e-320))
    small, small_stats = partition_with_stats(g, _cfg(c, a, seed=3, epsilon=1e-9))
    assert tiny.edge_list() == small.edge_list()
    assert tiny_stats.edges_touched == small_stats.edges_touched


def test_partition_deterministic():
    g = gen_fixed_degree(FixedDegreeSpec(l=80, r=80, d=8, seed=2))
    a = partition_with_stats(g, _cfg(2, 2, seed=5))[0].edge_list()
    b = partition_with_stats(g, _cfg(2, 2, seed=5))[0].edge_list()
    assert a == b


@pytest.mark.parametrize("l, r, c, a", [(60, 90, 3, 2), (500, 700, 2, 1), (1200, 1500, 2, 1)])
def test_partition_windows_are_maximum_when_the_cap_cannot_bind(monkeypatch, l, r, c, a):
    # A window whose cap exceeds every simple path is solved to a maximum
    # matching.  The window sets sit on either side of the layered threshold,
    # which counts their sources in all, c * l: the middle one's windows are
    # each smaller than it.
    nx = pytest.importorskip("networkx")
    g = gen_fixed_degree(FixedDegreeSpec(l=l, r=r, d=3, seed=11))
    wsize = min(l, r, l * c // a)
    windows = partition_windows(monkeypatch, g, _cfg(c, a, seed=5, epsilon=c / (wsize + 1)))
    assert len(windows) == c
    for keys, n_left, n_right, cap, size in windows:
        assert (n_left, n_right) == (l, wsize)
        assert (c * n_left >= matching._LAYERED_MIN) == (c * l >= 1000)
        assert cap >= 2 * min(n_left, n_right) + 1
        ref = nx.Graph()
        top = [("u", u) for u in range(n_left)]
        ref.add_nodes_from(top)
        ref.add_nodes_from(("v", v) for v in range(n_right))
        ref.add_edges_from((("u", k // n_right), ("v", k % n_right)) for k in keys.tolist())
        assert size == len(nx.algorithms.bipartite.hopcroft_karp_matching(ref, top)) // 2


@pytest.mark.parametrize("bound", [1, 2000, 1 << 40])
def test_partition_batches_keep_each_cells_selection_and_scans(monkeypatch, bound):
    # Every cell alone, a few cells per batch, and one batch: each cell gets
    # the selection and counters it gets from its own call.  Epsilon 1 and
    # 0.1 give cells of one c different caps, and the caps bind at 1.  On
    # the l = 0 and r = 0 graphs no cell has a window; the edgeless one has
    # windows with no keys.  Sampling cells, each a batch of one, at several
    # c and seeds, must also come out of the runner as they do alone.
    graphs = [
        gen_fixed_degree(FixedDegreeSpec(l=60, r=200, d=6, seed=3)),
        build_graph(0, 7, []),
        build_graph(7, 0, []),
        build_graph(6, 9, []),
    ]
    cells = [(c, a) for c in range(1, 5) for a in range(1, c + 1)]
    runs = [
        (
            "partition",
            partition_with_stats,
            [_cfg(c, a, seed=9, epsilon=eps) for c, a in cells for eps in (1.0, 0.1)],
        ),
        ("sampling", sampling_with_stats, [_cfg(c, 1, seed=s) for c in (1, 5) for s in (0, 9, 0)]),
    ]
    for g in graphs:
        for algo, alone, configs in runs:
            want = []
            for config in configs:
                sel, stats = alone(g, config)
                want.append((sel.indptr.tobytes(), sel.targets.tobytes(), stats))
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_BATCH_MAX", bound)
                got = [
                    (sel.indptr.tobytes(), sel.targets.tobytes(), stats)
                    for sel, stats, _ in _batched(g, algo, configs)
                ]
            assert got == want
            if g.m == 0:
                assert all(stats.edges_touched == 0 for _, _, stats in got)


def test_batched_cells_report_their_share_of_the_clock(monkeypatch):
    # A clock that moves one tick per read pins the reads each cell's
    # elapsed_ms spans.  Greedy: batches of two cells share one step.
    # Partition: a cell's layout is charged to the batch it joins, so the
    # c = 3 cell that overflows the first batch is charged to its own, and
    # the first batch's cells each get half of two layouts and one step.
    # Sampling: every cell is its own step.
    g = build_graph(10, 3, [(0, 0), (1, 1), (2, 2), (3, 0)])
    tick = 2.0**-10  # seconds per read
    reads = itertools.count()
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: next(reads) * tick)
    monkeypatch.setattr(solvers, "_WAVES_BATCH_MAX", 2 * (g.l + g.r + g.distinct_keys().size))
    # Three windows of l sources fill a batch; the cells' keys are far below.
    monkeypatch.setattr(solvers, "_BATCH_MAX", 3 * g.l)
    cases = {
        "sampling": ([(1, 1), (2, 1), (3, 1)], [1, 1, 1]),
        "greedy": ([(1, 1), (2, 1), (3, 1), (1, 1), (2, 2)], [1 / 2, 1 / 2, 1 / 2, 1 / 2, 1]),
        "partition": ([(1, 1), (2, 1), (3, 1), (1, 1), (1, 1)], [3 / 2, 3 / 2, 2, 3 / 2, 3 / 2]),
    }
    for algo, (cells, ticks) in cases.items():
        configs = [_cfg(c, a) for c, a in cells]
        got = [report.elapsed_ms for _, report in solvers._solve_cells(g, algo, configs)]
        assert got == pytest.approx([n * tick * 1e3 for n in ticks], rel=1e-12), algo


# ------------------------------------------------------------ selection pins

# Three fixed-degree instances (l, r, d, seed): two simple, the last one with
# parallel edges.  The digests pin every strategy's selection bytes, so a
# refactor of a solver's internals must reproduce them exactly.
_PIN_INSTANCES = [(30, 400, 5, 0), (200, 300, 3, 5), (40, 25, 6, 1)]
_PIN_VARIANTS = {
    "sampling": (sampling_with_stats, {}),
    "greedy-input-capacity": (greedy_with_stats, {}),
    "partition-eps0.1": (partition_with_stats, dict(epsilon=0.1)),
    "partition-eps1.0": (partition_with_stats, dict(epsilon=1.0)),
}
# sha256 over indptr + targets bytes of the three selections, in order.
# Sampling ignores ``a``, so it is pinned at a=1 only.
_PIN_DIGESTS = {
    ("sampling", 1, 1): "4805e418e243ad256415e6c4abb60f5a2559369054c38c44fca1e22599bf8039",
    ("sampling", 3, 1): "6af93a5efeeab5eda7d711d5501f982f2e9416ef6eda9c0bd957ffb9bdb99e9f",
    ("greedy-input-capacity", 1, 1): "9b3b6f958c08dacc386980226bc92e3987ee4f7f1ce7d48270a00140ffa08d80",
    ("greedy-input-capacity", 3, 1): "938c1c567ba18324e7d01d8b75d2c322f6577bae352b355d9aa957e35c2cd62a",
    ("greedy-input-capacity", 3, 2): "9dd3d9d18eedeb45b5cf7aa2e0d5998d81b7b8e236e37faf76688670af5ea910",
    ("partition-eps0.1", 1, 1): "a035d6ee066e68194e05794abd508e3906cdf78bd63cce02cd6a74307c81504c",
    ("partition-eps0.1", 3, 1): "93e00b07009ddd6c20e55294f50b57066d64be59b401c513f230a54a230668d8",
    ("partition-eps0.1", 3, 2): "00cb7006da58512d8f553f88d95d8eab126051651e39a8271f35c366ea6d31b7",
    ("partition-eps1.0", 1, 1): "b82894eff4ce3b6635f2059486c7dc32fa81508540e778d312fd4ed9313dba95",
    ("partition-eps1.0", 3, 1): "f8c43f8f2676fb23c52dc6e9dbc4bbee1943d5718f0278836a5a5da9cda01d3b",
    ("partition-eps1.0", 3, 2): "932656e814b131a9ac4b106249b2c0fbc526e8021acfd5a707e02a86dc90d30a",
}
# (edges_touched, peak_aux) of the same solves, per instance; partition's
# edges_touched includes its window matchings' edge scans.
_GREEDY_COUNTERS = [(150, 30), (600, 200), (240, 40)]
_PIN_COUNTERS = {
    ("sampling", 1, 1): [(150, 1), (600, 1), (240, 1)],
    ("sampling", 3, 1): [(150, 3), (600, 3), (240, 3)],
    **{
        (variant, c, a): _GREEDY_COUNTERS
        for variant, c, a in _PIN_DIGESTS
        if variant.startswith("greedy")
    },
    ("partition-eps0.1", 1, 1): [(162, 11), (1705, 394), (623, 240)],
    ("partition-eps0.1", 3, 1): [(187, 34), (2004, 600), (795, 240)],
    ("partition-eps0.1", 3, 2): [(177, 20), (2040, 600), (777, 240)],
    ("partition-eps1.0", 1, 1): [(162, 11), (954, 394), (486, 240)],
    ("partition-eps1.0", 3, 1): [(187, 34), (1837, 600), (780, 240)],
    ("partition-eps1.0", 3, 2): [(177, 20), (1920, 600), (766, 240)],
}


def _pin_graphs():
    return [
        gen_fixed_degree(FixedDegreeSpec(l=l, r=r, d=d, seed=seed))
        for l, r, d, seed in _PIN_INSTANCES
    ]


@pytest.mark.parametrize("variant, c, a", sorted(_PIN_DIGESTS))
def test_selection_bytes_pinned(variant, c, a, matching_engines, greedy_engines):
    graphs = _pin_graphs()
    assert [g.has_parallel_edges() for g in graphs] == [False, False, True]
    solver, kw = _PIN_VARIANTS[variant]
    engines = greedy_engines if variant.startswith("greedy") else matching_engines
    for _ in engines():
        h = hashlib.sha256()
        counters = []
        for g in graphs:
            sub, stats = solver(g, _cfg(c, a, seed=7, **kw))
            h.update(sub.indptr.tobytes() + sub.targets.tobytes())
            counters.append((stats.edges_touched, stats.peak_aux))
        assert h.hexdigest() == _PIN_DIGESTS[variant, c, a]
        assert counters == _PIN_COUNTERS[variant, c, a]


# (size, phases, sha256 of match_l as int64) per pinned instance, for each
# augmenting-path cap; None is the uncapped Hopcroft–Karp.
_MATCHING_PINS = {
    None: [
        (30, 1, "a0d30e0a8ba8286dfac0ed1fc4d0a0d9c0a00e8508b6eebcbcfbdfccb80045f3"),
        (200, 3, "07d424fb1a1412d49aaa5e623428b0cbc7aa707a71fe325d3ec38a2d25b9c463"),
        (25, 1, "3a8b7ed25d052a0e88d4ad220e66b5ba42bf08eabfc7c0e4a0d1def9ca7d7ec8"),
    ],
    1: [
        (30, 1, "a0d30e0a8ba8286dfac0ed1fc4d0a0d9c0a00e8508b6eebcbcfbdfccb80045f3"),
        (189, 1, "3cc66bca66d0709e8feb8f5abcace314297e7224904452ee80f88b9972f5b5c0"),
        (25, 1, "3a8b7ed25d052a0e88d4ad220e66b5ba42bf08eabfc7c0e4a0d1def9ca7d7ec8"),
    ],
    3: [
        (30, 1, "a0d30e0a8ba8286dfac0ed1fc4d0a0d9c0a00e8508b6eebcbcfbdfccb80045f3"),
        (199, 2, "e8a3e9c5fc5d5ebd42e1b4c8c045306c84fdbb1c0946d0cf636671e0be99e562"),
        (25, 1, "3a8b7ed25d052a0e88d4ad220e66b5ba42bf08eabfc7c0e4a0d1def9ca7d7ec8"),
    ],
    5: [
        (30, 1, "a0d30e0a8ba8286dfac0ed1fc4d0a0d9c0a00e8508b6eebcbcfbdfccb80045f3"),
        (200, 3, "07d424fb1a1412d49aaa5e623428b0cbc7aa707a71fe325d3ec38a2d25b9c463"),
        (25, 1, "3a8b7ed25d052a0e88d4ad220e66b5ba42bf08eabfc7c0e4a0d1def9ca7d7ec8"),
    ],
}


@pytest.mark.parametrize("cap", list(_MATCHING_PINS), ids=str)
def test_matchings_pinned(cap, matching_engines):
    for _ in matching_engines():
        got = []
        for g in _pin_graphs():
            m = hopcroft_karp(g) if cap is None else bounded_matching(g, cap)
            digest = hashlib.sha256(np.asarray(m.match_l, dtype=np.int64).tobytes())
            got.append((m.size, m.phases, digest.hexdigest()))
        assert got == _MATCHING_PINS[cap]


# ----------------------------------------------------------------- solve()


def test_solve_unknown_algo():
    g = build_graph(1, 1, [(0, 0)])
    with pytest.raises(ConfigError):
        solve(g, "newton", _cfg(1, 1))


@pytest.mark.parametrize("algo", [["greedy"], {"greedy": 1}])
def test_solve_refuses_an_unhashable_algo(algo):
    # Refused like an unknown name, not with a TypeError from hashing it.
    g = build_graph(1, 1, [(0, 0)])
    with pytest.raises(ConfigError, match="unknown algorithm"):
        solve(g, algo, _cfg(1, 1))


@pytest.mark.parametrize("l, r", [(0, 0), (0, 3), (3, 0), (3, 4)])
@pytest.mark.parametrize(
    "runner, kw, counters",
    [
        (sampling_with_stats, {}, lambda l: (0, 0)),
        (greedy_with_stats, {}, lambda l: (0, l)),
        (partition_with_stats, {}, lambda l: (0, 0)),
    ],
    ids=["sampling", "greedy-input-order", "partition"],
)
def test_edgeless_graph_gives_empty_selection(l, r, runner, kw, counters, greedy_engines):
    g = build_graph(l, r, [])
    cfg = _cfg(2, 1, **kw)
    for _ in greedy_engines():
        sub, stats = runner(g, cfg)
        assert (sub.l, sub.r, sub.n_selected) == (l, r, 0)
        assert validate(g, sub, cfg.params) == []
        assert (stats.edges_touched, stats.peak_aux) == counters(l)


def test_solve_edgeless_ratio_is_one():
    g = build_graph(5, 5, [])
    sub, report = solve(g, "greedy", _cfg(1, 1))
    assert report.covered == 0
    assert report.upper_bound == 0
    assert report.ratio == 1.0


def test_solve_reports_match_recomputation(rng):
    for algo in ("sampling", "greedy", "partition"):
        g = random_simple_graph(rng, max_l=8, max_r=8, p=0.5)
        cfg = _cfg(2, 1, seed=3)
        sub, report = solve(g, algo, cfg)
        assert report.covered == coverage(g, sub, 1)
        assert report.upper_bound == upper_bound_estimate(g, cfg.params)
        assert 0.0 <= report.ratio <= 1.0


def test_solve_every_algo_valid_on_many_instances(rng):
    for _ in range(150):
        g = random_simple_graph(rng)
        c = int(rng.integers(1, 4))
        for algo in ("sampling", "greedy", "partition"):
            a = int(rng.integers(1, c + 1)) if algo == "partition" else int(rng.integers(1, 4))
            cfg = _cfg(c, a, seed=int(rng.integers(2**32)))
            sub, report = solve(g, algo, cfg)
            assert validate(g, sub, cfg.params) == []
            assert report.covered <= report.upper_bound or report.upper_bound == 0


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**64, "3", None])
def test_solver_seed_must_be_a_64_bit_integer(seed):
    # seed=1.5 once gave the selection of seed 1.
    with pytest.raises(ConfigError, match="seed must be an integer in"):
        SolverConfig(params=ProblemParams(c=1, a=1), seed=seed)


def test_solve_epsilon_validation():
    for epsilon in (0.0, 1.5, "x", None, True):
        with pytest.raises(ConfigError):
            SolverConfig(params=ProblemParams(c=1, a=1), epsilon=epsilon)


@pytest.mark.parametrize("params", [(1, 1), None, {"c": 1, "a": 1}], ids=["tuple", "none", "dict"])
def test_solver_params_must_be_problem_params(params):
    # A (c, a) tuple once died inside solve() with an AttributeError.
    with pytest.raises(ConfigError, match="params must be a ProblemParams"):
        SolverConfig(params)


_BAD_PARAMS = [(1, 1), None, {"c": 1, "a": 1}]


@pytest.mark.parametrize(
    "call, error, message, bads",
    [
        # validate takes params=None as "no degree cap".
        (lambda g, sel, bad: validate(g, sel, bad), ValueError, "params must be a ProblemParams",
         [(1, 1), {"c": 1, "a": 1}]),
        (lambda g, sel, bad: upper_bound_estimate(g, bad), ValueError,
         "params must be a ProblemParams", _BAD_PARAMS),
        (lambda g, sel, bad: exact_opt(g, bad), ValueError, "params must be a ProblemParams",
         _BAD_PARAMS),
        (lambda g, sel, bad: solve(g, "greedy", bad), ConfigError, "config must be a SolverConfig",
         [*_BAD_PARAMS, ProblemParams(1, 1)]),
    ],
    ids=["validate", "upper_bound_estimate", "exact_opt", "solve"],
)
def test_params_and_config_of_the_wrong_type_are_refused(call, error, message, bads):
    # Each of these once died with an AttributeError on the tuple.
    g = build_graph(2, 2, [(0, 0), (1, 1)])
    sel = RecSubgraph.from_edges(2, 2, [0], [0])
    for bad in bads:
        with pytest.raises(error, match=message):
            call(g, sel, bad)


@pytest.mark.parametrize("algo", ["sampling", "greedy", "partition"])
def test_every_strategy_keeps_the_keys_of_its_picks(algo, rng, greedy_engines, matching_engines):
    graphs = [build_graph(0, 3, []), build_graph(3, 0, []), build_graph(4, 5, [])]
    graphs += [random_simple_graph(rng, max_l=9, max_r=9, p=0.5) for _ in range(20)]
    for _ in greedy_engines():
        for _ in matching_engines():
            for g, a in itertools.product(graphs, (1, 2)):
                sel, _ = solve(g, algo, _cfg(2, a, seed=5))
                assert sel._keys.dtype == np.int64 and not sel._keys.flags.writeable
                assert sel._keys.tolist() == (sel.selected_u() * g.r + sel.targets).tolist()


# ------------------------------------------------------------- kept views


def _multigraph(rng, l, r, m):
    """``m`` uniform edges, so parallel ones are likely."""
    us, vs = rng.integers(l, size=m), rng.integers(r, size=m)
    return build_graph(l, r, zip(us.tolist(), vs.tolist()))


def _fresh(g):
    """The same graph with nothing kept from earlier solves."""
    return BipartiteGraph(g.l, g.r, g.edge_u.copy(), g.edge_v.copy())


def _outcome(sel, stats):
    return sel.indptr.tobytes(), sel.targets.tobytes(), stats


def test_repeated_solves_on_one_graph_equal_fresh_graphs(rng, greedy_engines):
    # Seeds s1, s2, s1 over several cells on the same graphs: what a graph
    # keeps for one call must give every later call a fresh graph's answer.
    big = _multigraph(rng, 30, 40, 150)
    small = _multigraph(rng, 7, 9, 24)
    assert big.has_parallel_edges() and small.has_parallel_edges()
    cells = [(1, 1), (3, 1), (3, 2), (2, 3)]
    for _ in greedy_engines():
        for seed in (11, 12, 11):
            for g, (c, a) in itertools.product((big, small), cells):
                config = _cfg(c, a, seed=seed)
                for runner in (sampling_with_stats, greedy_with_stats):
                    assert _outcome(*runner(g, config)) == _outcome(*runner(_fresh(g), config))
                if g is small and a <= 2:
                    params = ProblemParams(c, a)
                    assert exact_opt(g, params) == exact_opt(_fresh(g), params)
                assert g._sampling_rank[0] == seed


def test_graph_keeps_one_read_only_ranking_for_the_last_seed(rng):
    g = _multigraph(rng, 30, 40, 150)
    for seed in (1, 2, 3):
        sampling_with_stats(g, _cfg(2, 1, seed=seed))
    held_seed, order = g._sampling_rank
    assert held_seed == 3 and order.dtype == np.int32
    with pytest.raises(ValueError):
        order[0] = 0
    keys = philox_stream(3, STREAM_SAMPLING).random(g.m)
    assert order.tolist() == solvers._by_source_then_key(g.edge_u, keys, g.l).tolist()
    # Every c keeps a prefix of the same ranking, so a second c reuses it.
    sampling_with_stats(g, _cfg(4, 1, seed=3))
    assert g._sampling_rank[1] is order
