"""Exact optimum via split-graph matching: worked instances, cross-checks, size guard.

The cross-checks compare against exhaustive enumeration and against
networkx's max-flow on the budgeted network.
"""
import math
from itertools import combinations

import numpy as np
import pytest

from recsubgraph import (
    BipartiteGraph,
    ErdosRenyiSpec,
    FixedDegreeSpec,
    OracleSizeError,
    ProblemParams,
    SolverConfig,
    exact_opt,
    gen_erdos_renyi,
    gen_fixed_degree,
    hopcroft_karp,
    solve,
    upper_bound_estimate,
)
from recsubgraph import oracle
from recsubgraph.graph import _by_target
from recsubgraph.matching import _match
from conftest import chain_graph, enumerate_opt, random_simple_graph


def test_star_with_budget_two():
    g = BipartiteGraph(1, 3, [0, 0, 0], [0, 1, 2])
    assert exact_opt(g, ProblemParams(c=2, a=1)) == 2


def test_shared_target_blocks_second():
    # Both sources can finish v=0 together, or one of v=1/v=2 each... with
    # a=2 only targets seen by both sources count, and only v=0 qualifies.
    g = BipartiteGraph(2, 3, [0, 0, 1, 1], [0, 1, 0, 2])
    assert exact_opt(g, ProblemParams(c=1, a=2)) == 1
    assert exact_opt(g, ProblemParams(c=1, a=1)) == 2
    assert exact_opt(g, ProblemParams(c=2, a=1)) == 3


def test_edgeless():
    g = BipartiteGraph(3, 3, [], [])
    assert exact_opt(g, ProblemParams(c=2, a=1)) == 0


def test_crown_equals_matching():
    # c=1, a=1 is exactly maximum bipartite matching.
    g = BipartiteGraph(3, 3, [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1])
    assert exact_opt(g, ProblemParams(c=1, a=1)) == hopcroft_karp(g).size


def test_matches_networkx_flow_search(rng):
    # An independent reference: the largest target set T whose budgeted
    # network (source -> u at capacity c, u -> v at 1, v in T -> sink at a)
    # carries a*|T| units in networkx's max-flow.
    nx = pytest.importorskip("networkx")

    def flow_opt(g, c, a):
        net = nx.DiGraph()
        net.add_edges_from((("s", ("u", u)) for u in range(g.l)), capacity=c)
        # A DiGraph keeps one arc per pair, so parallel edges add nothing.
        net.add_edges_from(((("u", u), ("v", v)) for u, v in g.edge_list()), capacity=1)
        net.add_edges_from(((("v", v), "t") for v in range(g.r)), capacity=0)
        cands = [v for v in range(g.r) if net.in_degree(("v", v)) >= a]
        for size in range(len(cands), 0, -1):
            for targets in combinations(cands, size):
                for v in range(g.r):
                    net[("v", v)]["t"]["capacity"] = a if v in targets else 0
                if nx.maximum_flow_value(net, "s", "t") == a * size:
                    return size
        return 0

    graphs = [random_simple_graph(rng, max_l=6, max_r=6) for _ in range(40)]
    graphs += [
        gen_fixed_degree(FixedDegreeSpec(l=int(rng.integers(1, 7)), r=int(rng.integers(1, 7)),
                                         d=3, seed=int(rng.integers(2**32))))
        for _ in range(20)
    ]
    assert any(g.has_parallel_edges() for g in graphs)
    for g in graphs:
        c = int(rng.integers(1, 4))
        a = int(rng.integers(1, 4))
        assert exact_opt(g, ProblemParams(c=c, a=a)) == flow_opt(g, c, a), (g.edge_list(), c, a)


def test_matches_exhaustive_enumeration(rng):
    for _ in range(80):
        g = random_simple_graph(rng, max_l=4, max_r=4, p=0.5)
        c = int(rng.integers(1, 3))
        a = int(rng.integers(1, 3))
        want = enumerate_opt(g, c, a)
        assert exact_opt(g, ProblemParams(c=c, a=a)) == want, (g.edge_list(), c, a)


def test_never_exceeds_upper_bound_estimate(rng):
    for _ in range(60):
        g = random_simple_graph(rng)
        c = int(rng.integers(1, 4))
        a = int(rng.integers(1, 4))
        params = ProblemParams(c=c, a=a)
        assert exact_opt(g, params) <= upper_bound_estimate(g, params)


def test_dominates_heuristics(rng):
    for _ in range(40):
        g = random_simple_graph(rng)
        c = int(rng.integers(1, 4))
        a = int(rng.integers(1, c + 1))
        opt = exact_opt(g, ProblemParams(c=c, a=a))
        for algo in ("sampling", "greedy", "partition"):
            cfg = SolverConfig(params=ProblemParams(c=c, a=a), seed=int(rng.integers(2**32)))
            _, report = solve(g, algo, cfg)
            assert report.covered <= opt, (algo, report.covered, opt)


def test_parallel_edges_do_not_double_count():
    g = BipartiteGraph(1, 1, [0, 0], [0, 0])
    assert exact_opt(g, ProblemParams(c=2, a=2)) == 0


def test_size_guard(monkeypatch):
    # An open bracket (lo 319, hi 500) over 1925 candidates: far more than
    # 2**SIZE_GUARD subsets, refused before the search starts.
    g = gen_fixed_degree(FixedDegreeSpec(l=500, r=2000, d=20, seed=1))
    with pytest.raises(OracleSizeError, match=r"2\*\*20 subsets"):
        exact_opt(g, ProblemParams(c=2, a=2))
    # At a=1 the bracket always closes, so size alone is never refused.
    g = gen_fixed_degree(FixedDegreeSpec(l=25, r=10, d=2, seed=0))
    assert exact_opt(g, ProblemParams(c=1, a=1)) == hopcroft_karp(g).size
    # 6 candidates, bracket 1..3: sizes 3 and 2 make 20 + 15 = 35 subsets,
    # over 2**5 and within 2**6.
    g = gen_fixed_degree(FixedDegreeSpec(l=6, r=10, d=3, seed=4))
    monkeypatch.setattr(oracle, "SIZE_GUARD", 5)
    with pytest.raises(OracleSizeError, match=r"1\.\.3"):
        exact_opt(g, ProblemParams(c=1, a=2))
    monkeypatch.setattr(oracle, "SIZE_GUARD", 6)
    assert exact_opt(g, ProblemParams(c=1, a=2)) == 3


@pytest.mark.parametrize(
    "gen, spec, c, a, opt",
    [
        (gen_erdos_renyi, ErdosRenyiSpec(l=2000, r=2000, p=2e-3, seed=1), 1, 1, 1953),
        (gen_erdos_renyi, ErdosRenyiSpec(l=2000, r=2000, p=2e-3, seed=1), 3, 2, 1821),
        (gen_fixed_degree, FixedDegreeSpec(l=500, r=2000, d=20, seed=1), 1, 1, 500),
    ],
    ids=["er-1-1", "er-3-2", "fd-1-1"],
)
def test_closed_bracket_bounds_every_strategy_at_scale(gen, spec, c, a, opt):
    # Far past any subset search: one matching decides the optimum here.
    g = gen(spec)
    params = ProblemParams(c=c, a=a)
    assert exact_opt(g, params) == opt
    for algo in ("sampling", "greedy", "partition"):
        _, report = solve(g, algo, SolverConfig(params=params, seed=1))
        assert report.covered <= opt, algo
        if algo == "greedy":
            assert report.covered >= math.ceil(opt / (a + 1))


def _served_reference(graph, targets, c, a):
    """Per-target links from the split graph, built and counted in plain Python."""
    sources = [sorted({u for u, v in graph.edge_list() if v == t}) for t in range(graph.r)]
    m = sum(len(sources[v]) for v in targets)
    copies = a * len(targets)
    n_right = m + graph.l * c
    adj = []
    e = 0
    for v in targets:
        adj += [list(range(e, e + len(sources[v])))] * a
        e += len(sources[v])
    e = 0
    for v in targets:
        for u in sources[v]:
            adj.append([e] + [m + u * c + i for i in range(c)])
            e += 1
    keys = np.array([x * n_right + y for x, row in enumerate(adj) for y in row], dtype=np.int64)
    match_l = _match(keys, copies + m, n_right)[0].tolist()
    held = [match_l[j] for j in range(copies)]
    linked = [x >= 0 and match_l[copies + x] >= 0 for x in held]
    return [sum(linked[k * a:(k + 1) * a]) for k in range(len(targets))]


def test_served_matches_python_split_graph(rng):
    graphs = [BipartiteGraph(0, 3, [], []), BipartiteGraph(3, 0, [], [])]
    for _ in range(150):
        l, r = (int(x) for x in rng.integers(1, 7, size=2))
        n = int(rng.integers(13))
        graphs.append(BipartiteGraph(l, r, rng.integers(l, size=n), rng.integers(r, size=n)))
    assert any(g.has_parallel_edges() for g in graphs)
    for g in graphs:
        c = int(rng.integers(1, 4))
        a = int(rng.integers(1, 4))
        offsets, sources = _by_target(g)
        for targets in (np.flatnonzero(rng.random(g.r) < 0.6), np.arange(0)):
            got = oracle._served(offsets, sources, targets, g.l, c, a).tolist()
            assert got == _served_reference(g, targets.tolist(), c, a), (g.edge_list(), c, a)


def test_bmatching_counts_saturated_flow():
    g = BipartiteGraph(2, 2, [0, 0, 1, 1], [0, 1, 0, 1])
    assert exact_opt(g, ProblemParams(c=1, a=1)) == 2
    # Raising c cannot help once every target already has a partner.
    assert exact_opt(g, ProblemParams(c=2, a=1)) == 2
    star = BipartiteGraph(1, 3, [0, 0, 0], [0, 1, 2])
    assert exact_opt(star, ProblemParams(c=2, a=1)) == 2
    assert exact_opt(star, ProblemParams(c=3, a=1)) == 3


def test_long_augmenting_path_does_not_recurse():
    g = chain_graph(600)
    assert exact_opt(g, ProblemParams(c=1, a=1)) == 600


def test_served_at_a_1_matches_targets_straight_to_source_copies(monkeypatch):
    # No split graph: one left vertex per target, c right vertices per source.
    g = BipartiteGraph(3, 4, [0, 0, 1, 2, 2, 1], [0, 1, 1, 1, 3, 3])
    calls = []

    def spy(keys, n_left, n_right, *rest):
        calls.append((keys.tolist(), n_left, n_right))
        return _match(keys, n_left, n_right, *rest)

    monkeypatch.setattr(oracle, "_match", spy)
    offsets, sources = _by_target(g)
    targets = np.array([0, 1, 3])
    assert oracle._served(offsets, sources, targets, g.l, 2, 1).tolist() == [1, 1, 1]
    keys, n_left, n_right = calls[0]
    assert (n_left, n_right) == (len(targets), g.l * 2)
    # Target k reaches copy i of source u as k*l*c + u*c + i, ascending.
    assert keys == [0, 1, 6, 7, 8, 9, 10, 11, 14, 15, 16, 17]
