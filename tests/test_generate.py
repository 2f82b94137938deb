"""Random instance generators: exact shapes, determinism, and distribution checks."""
import hashlib
import math

import numpy as np
import pytest

from recsubgraph import (
    ErdosRenyiSpec,
    FixedDegreeSpec,
    gen_erdos_renyi,
    gen_fixed_degree,
)
from recsubgraph.generate import (
    STREAM_GENERATE,
    STREAM_PARTITION,
    STREAM_SAMPLING,
    _gap_walk,
    _model_spec,
    generate_instance,
    philox_stream,
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


@pytest.mark.parametrize(
    ("make", "digest"),
    [
        # Parallel edges: equal draws of one source stay side by side.
        (lambda: gen_fixed_degree(FixedDegreeSpec(300, 1200, 20, 301)),
         "6e323c37c5ca3e11626f4afe21b88cb24a4d8c6f6c50dd929814f44962f532a7"),
        (lambda: gen_fixed_degree(FixedDegreeSpec(0, 5, 3, 1)),
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (lambda: gen_fixed_degree(FixedDegreeSpec(7, 1, 4, 2)),
         "a5ae1d9043dc7b09b31640302acb9adc55be38b127548510ba39a0b7d56f3544"),
        (lambda: gen_fixed_degree(FixedDegreeSpec(1000, 50, 1, 3)),
         "979f6cc7ee533f2680b64f704b6e9f5484a2c2b333e34221a9ee2f42f4af7580"),
        (lambda: gen_erdos_renyi(ErdosRenyiSpec(300, 300, 0.02, 301)),
         "bb3b4a513346bcdfb70395cabde64b743aeb4970283b395b2392ed92c79ce7c9"),
        (lambda: gen_erdos_renyi(ErdosRenyiSpec(4, 5, 1.0, 0)),
         "f5c4cb24f4c9b43e624e0a83cb11934f932dbd5db24eee67fed696354ac88a61"),
    ],
    ids=["fd-300x1200", "fd-edgeless", "fd-one-target", "fd-d1", "er-300x300", "er-p1"],
)
def test_generators_keep_their_bytes(make, digest):
    # Every spec's edge keys are pinned, so a change to the draw order or to
    # how the draws become keys shows here.
    assert hashlib.sha256(make().edge_keys().tobytes()).hexdigest() == digest


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
        fracs.append(np.count_nonzero(np.bincount(g.edge_v, minlength=g.r) >= 1) / g.r)
    law = 1.0 - math.exp(-20 * 1000 / 4000)
    assert abs(np.mean(fracs) - law) <= 0.02


def test_spec_validation():
    with pytest.raises(ValueError):
        FixedDegreeSpec(l=1, r=0, d=1)
    with pytest.raises(ValueError):
        FixedDegreeSpec(l=1, r=1, d=0)
    with pytest.raises(ValueError):
        ErdosRenyiSpec(l=1, r=1, p=1.5)
    # Sides beyond the int64 key range are refused before anything is drawn.
    for l, r in ((2**31, 5), (5, 2**31)):
        with pytest.raises(ValueError, match=r"side sizes must be < 2\*\*31"):
            FixedDegreeSpec(l=l, r=r, d=2)
        with pytest.raises(ValueError, match=r"side sizes must be < 2\*\*31"):
            ErdosRenyiSpec(l=l, r=r, p=0.5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FixedDegreeSpec(3, 3, 2.5),
        lambda: FixedDegreeSpec(3.0, 3, 2),
        lambda: FixedDegreeSpec(3, 3, True),
        lambda: FixedDegreeSpec(3, 3, 2, seed=1.5),
        lambda: FixedDegreeSpec(3, 3, 2, seed=2**64),
        lambda: ErdosRenyiSpec(2, 3, "x"),
        lambda: ErdosRenyiSpec(2, 3, None),
        lambda: ErdosRenyiSpec(2, 3.5, 0.5),
        lambda: ErdosRenyiSpec(2, 3, 0.5, seed=-1),
    ],
    ids=[
        "fd-d-float", "fd-l-float", "fd-d-bool", "fd-seed-float", "fd-seed-2**64",
        "er-p-string", "er-p-none", "er-r-float", "er-seed-negative",
    ],
)
def test_spec_fields_must_have_their_types(make):
    # Each once passed the spec, then failed later with a TypeError or drew
    # a graph from a truncated value.
    with pytest.raises(ValueError):
        make()


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


@pytest.mark.parametrize("p", [1e-300, 1e-17])
def test_erdos_renyi_gap_walk_stays_in_range_on_huge_sides(p):
    # l = r = 2**30: a batch of gaps near l*r sums past 2**63.  Only the walk
    # runs; a graph this wide would need 8 GB of offsets.
    total = 2**30 * 2**30
    for seed in range(5):
        idx = _gap_walk(total, p, philox_stream(seed, STREAM_GENERATE))
        assert ((idx >= 0) & (idx < total)).all()
        assert (np.diff(idx) > 0).all()
        if p == 1e-300:  # every gap saturates past total
            assert idx.size == 0


class _UnitGaps:
    """A generator stub whose every geometric gap is 1."""

    def geometric(self, p, size):
        return np.ones(size, dtype=np.int64)


def test_gap_walk_continues_over_batches():
    # Unit gaps keep every slot; the walk needs three batches to reach 1000.
    assert np.array_equal(_gap_walk(1000, 0.5, _UnitGaps()), np.arange(1000))


def _flat_state(state: dict) -> list:
    """A bit generator's ``.state`` as a comparable list (it holds arrays)."""
    out = []
    for key, value in sorted(state.items()):
        if isinstance(value, dict):
            out += [(key, item) for item in _flat_state(value)]
        else:
            out.append((key, np.asarray(value).tolist()))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("role", [STREAM_GENERATE, STREAM_SAMPLING, STREAM_PARTITION])
def test_philox_stream_equals_the_keyed_philox(seed, role):
    # The stream is Philox(key=[seed, role]), built without its entropy draw.
    want = np.random.Generator(np.random.Philox(key=np.array([seed, role], dtype=np.uint64)))
    got = philox_stream(seed, role)
    assert _flat_state(got.bit_generator.state) == _flat_state(want.bit_generator.state)
    assert np.array_equal(got.random(1000), want.random(1000))


def test_model_spec_refuses_an_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        _model_spec("nope", 0)


@pytest.mark.parametrize("model", [["fixed-degree"], {"fixed-degree": 1}])
def test_generate_instance_refuses_an_unhashable_model(model):
    # Refused like an unknown name, not with a TypeError from hashing it.
    with pytest.raises(ValueError, match="unknown model"):
        generate_instance(model, 0, l=4, r=4, d=2)
