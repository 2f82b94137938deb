"""Exact optimum via flow: worked instances, cross-checks, size guard."""
import warnings

import numpy as np
import pytest

from recsubgraph import (
    FixedDegreeSpec,
    OracleSizeError,
    ProblemParams,
    SolverConfig,
    build_graph,
    coverage,
    exact_opt,
    gen_fixed_degree,
    hopcroft_karp,
    solve,
    upper_bound_estimate,
)
from conftest import chain_graph, enumerate_opt, random_simple_graph


def test_star_with_budget_two():
    g = build_graph(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert exact_opt(g, ProblemParams(c=2, a=1)) == 2


def test_shared_target_blocks_second():
    # Both sources can finish v=0 together, or one of v=1/v=2 each... with
    # a=2 only targets seen by both sources count, and only v=0 qualifies.
    g = build_graph(2, 3, [(0, 0), (0, 1), (1, 0), (1, 2)])
    assert exact_opt(g, ProblemParams(c=1, a=2)) == 1
    assert exact_opt(g, ProblemParams(c=1, a=1)) == 2
    assert exact_opt(g, ProblemParams(c=2, a=1)) == 3


def test_edgeless():
    g = build_graph(3, 3, [])
    assert exact_opt(g, ProblemParams(c=2, a=1)) == 0


def test_crown_equals_matching():
    # c=1, a=1 is exactly maximum bipartite matching.
    g = build_graph(3, 3, [(u, v) for u in range(3) for v in range(3) if u != v])
    assert exact_opt(g, ProblemParams(c=1, a=1)) == hopcroft_karp(g).size


def test_a1_reduces_to_degree_constrained_matching(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(60):
        g = random_simple_graph(rng)
        c = int(rng.integers(1, 4))
        # The same budgeted network, solved by an independent max-flow.
        net = nx.DiGraph()
        net.add_edges_from((("s", ("u", u)) for u in range(g.l)), capacity=c)
        net.add_edges_from(((("u", u), ("v", v)) for u, v in g.edge_list()), capacity=1)
        net.add_edges_from(((("v", v), "t") for v in range(g.r)), capacity=1)
        want = nx.maximum_flow_value(net, "s", "t")
        assert exact_opt(g, ProblemParams(c=c, a=1)) == want


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
    with warnings.catch_warnings():
        # Tiny graphs often trip the degenerate-budget note; irrelevant here.
        warnings.simplefilter("ignore", UserWarning)
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
    g = build_graph(1, 1, [(0, 0), (0, 0)])
    assert exact_opt(g, ProblemParams(c=2, a=2)) == 0


def test_size_guard():
    g = gen_fixed_degree(FixedDegreeSpec(l=25, r=10, d=2, seed=0))
    with pytest.raises(OracleSizeError):
        exact_opt(g, ProblemParams(c=1, a=1))
    # force bypasses the guard; a=1 keeps it cheap even at l=25.
    got = exact_opt(g, ProblemParams(c=1, a=1), force=True)
    assert got == hopcroft_karp(g).size


def test_bmatching_counts_saturated_flow():
    g = build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert exact_opt(g, ProblemParams(c=1, a=1)) == 2
    # Raising c cannot help once every target already has a partner.
    assert exact_opt(g, ProblemParams(c=2, a=1)) == 2
    star = build_graph(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert exact_opt(star, ProblemParams(c=2, a=1)) == 2
    assert exact_opt(star, ProblemParams(c=3, a=1)) == 3


def test_long_augmenting_path_does_not_recurse():
    g = chain_graph(600)
    assert exact_opt(g, ProblemParams(c=1, a=1), force=True) == 600
