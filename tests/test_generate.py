"""Random instance generators: exact shapes, determinism, and distribution checks."""
import math

import numpy as np
import pytest

from recsubgraph import (
    ErdosRenyiSpec,
    FixedDegreeSpec,
    gen_erdos_renyi,
    gen_fixed_degree,
)


def test_fixed_degree_exact_edge_count():
    g = gen_fixed_degree(FixedDegreeSpec(l=1000, r=4000, d=20, seed=3))
    assert g.m == 20000
    assert np.all(g.left_degrees == 20)


def test_fixed_degree_tiny_target_space():
    # r=1 forces every draw onto the same target: parallel edges survive.
    g = gen_fixed_degree(FixedDegreeSpec(l=3, r=1, d=2, seed=0))
    assert g.m == 6
    assert g.edge_v[g.indptr_l[0] : g.indptr_l[1]].tolist() == [0, 0]
    assert g.has_parallel_edges()


def test_fixed_degree_deterministic():
    a = gen_fixed_degree(FixedDegreeSpec(l=50, r=20, d=4, seed=9))
    b = gen_fixed_degree(FixedDegreeSpec(l=50, r=20, d=4, seed=9))
    c = gen_fixed_degree(FixedDegreeSpec(l=50, r=20, d=4, seed=10))
    assert np.array_equal(a.edge_v, b.edge_v)
    assert not np.array_equal(a.edge_v, c.edge_v)


def test_fixed_degree_touch_fraction_matches_law():
    # Fraction of targets hit at least once concentrates at 1 - e^(-dk).
    fracs = []
    for seed in range(100):
        g = gen_fixed_degree(FixedDegreeSpec(l=1000, r=4000, d=20, seed=seed))
        fracs.append(np.count_nonzero(np.diff(g.indptr_r) >= 1) / g.r)
    law = 1.0 - math.exp(-20 * 1000 / 4000)
    assert abs(np.mean(fracs) - law) <= 0.02


def test_spec_validation():
    with pytest.raises(ValueError):
        FixedDegreeSpec(l=1, r=0, d=1)
    with pytest.raises(ValueError):
        FixedDegreeSpec(l=1, r=1, d=0)
    with pytest.raises(ValueError):
        ErdosRenyiSpec(l=1, r=1, p=1.5)


def test_erdos_renyi_edge_cases():
    assert gen_erdos_renyi(ErdosRenyiSpec(l=5, r=7, p=0.0, seed=1)).m == 0
    g = gen_erdos_renyi(ErdosRenyiSpec(l=5, r=7, p=1.0, seed=1))
    assert g.m == 35
    assert not g.has_parallel_edges()


def test_erdos_renyi_simple_and_deterministic():
    a = gen_erdos_renyi(ErdosRenyiSpec(l=80, r=60, p=0.1, seed=4))
    b = gen_erdos_renyi(ErdosRenyiSpec(l=80, r=60, p=0.1, seed=4))
    assert np.array_equal(a.edge_u, b.edge_u) and np.array_equal(a.edge_v, b.edge_v)
    assert not a.has_parallel_edges()


def test_erdos_renyi_single_draw_count_within_3_sigma():
    spec = ErdosRenyiSpec(l=500, r=1000, p=0.02, seed=11)
    g = gen_erdos_renyi(spec)
    mean = 500 * 1000 * 0.02
    sigma = math.sqrt(500 * 1000 * 0.02 * 0.98)
    assert abs(g.m - mean) <= 3 * sigma


def test_erdos_renyi_mean_count_over_200_seeds():
    l, r, p = 60, 90, 0.07
    counts = [gen_erdos_renyi(ErdosRenyiSpec(l, r, p, seed)).m for seed in range(200)]
    mean = l * r * p
    stderr = math.sqrt(l * r * p * (1 - p) / 200)
    assert abs(np.mean(counts) - mean) <= 4 * stderr


def test_degree_cross_check_between_models():
    # With p = d/r the two models agree on expected source degree d.
    l, r, d = 300, 150, 6
    degs = [
        gen_erdos_renyi(ErdosRenyiSpec(l, r, d / r, seed)).left_degrees.mean()
        for seed in range(50)
    ]
    stderr = math.sqrt(d * (1 - d / r) / (l * 50))
    assert abs(np.mean(degs) - d) <= 4 * stderr


@pytest.mark.parametrize("p", [1e-18, 1e-19, 1e-100, 1e-320, 5e-324])
def test_erdos_renyi_tiny_p_returns_edgeless_graph(p):
    # numpy saturates Geometric(p) draws at 2**63-1 for such p.
    g = gen_erdos_renyi(ErdosRenyiSpec(5, 5, p, seed=0))
    assert (g.l, g.r, g.m) == (5, 5, 0)
