"""Graph container, selection container, validation, and coverage."""
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recsubgraph import (
    BipartiteGraph,
    GraphError,
    ProblemParams,
    RecSubgraph,
    SolverConfig,
    SubgraphValidationError,
    build_graph,
    coverage,
    exact_opt,
    read_edge_list,
    simplify,
    solve,
    solvers,
    validate,
    write_edge_list,
)
from recsubgraph.graph import _by_target


def test_single_edge_counts():
    g = build_graph(1, 1, [(0, 0)])
    assert g.m == 1
    assert g.left_degrees.tolist() == [1]
    assert np.bincount(g.edge_v, minlength=g.r).tolist() == [1]


def test_reprs_give_the_sizes():
    g = build_graph(2, 3, [(0, 0), (0, 0), (1, 2)])
    assert repr(g) == "BipartiteGraph(l=2, r=3, m=3)"
    assert repr(RecSubgraph(2, 3, [0, 1, 2], [0, 2])) == "RecSubgraph(l=2, r=3, selected=2)"


def test_adjacency_sorted_both_ways():
    g = build_graph(2, 2, [(1, 0), (0, 1), (0, 0)])
    assert g.m == 3
    assert (g.indptr_l.tolist(), g.edge_v.tolist()) == ([0, 2, 3], [0, 1, 0])
    assert np.bincount(g.edge_v, minlength=g.r).tolist() == [2, 1]


def test_out_of_range_endpoint_named():
    with pytest.raises(GraphError, match=r"endpoint out of range at index 1"):
        build_graph(2, 2, [(0, 0), (0, 2)])
    with pytest.raises(GraphError, match=r"endpoint out of range at index 0"):
        build_graph(2, 2, [(-1, 0)])
    # An unsigned endpoint is named as given, not as its int64 wrap (-1).
    huge = np.array([2**64 - 1], np.uint64)
    with pytest.raises(GraphError, match=r"at index 0: \(18446744073709551615, 0\)"):
        BipartiteGraph(2, 2, huge, np.array([0], np.uint64))


@pytest.mark.parametrize(
    "build",
    [
        lambda: BipartiteGraph(2, 3, [0.7], [0]),
        lambda: BipartiteGraph(2, 3, np.array([0]), np.array([1.0])),
        lambda: BipartiteGraph(2, 3, np.array([True]), np.array([0])),
        lambda: build_graph(2, 3, [(0.5, 1.9)]),
        lambda: build_graph(2.0, 3, [(0, 1)]),
        lambda: BipartiteGraph(2, True, [0], [0]),
    ],
    ids=["float-u", "float-v", "bool-u", "float-pair", "float-side", "bool-side"],
)
def test_graph_refuses_non_integer_endpoints_and_sides(build):
    # Each of these once built a graph from truncated or cast values.
    with pytest.raises(GraphError):
        build()


def test_non_integer_picks_refused_and_empty_input_accepted():
    with pytest.raises(ValueError, match="must be integers"):
        RecSubgraph.from_edges(2, 3, [1.9], [2.2])  # once picked (1, 2)
    # An empty list is a float64 array; it is still an empty edge set.
    assert build_graph(2, 3, []).m == 0
    assert BipartiteGraph(2, 3, [], []).m == 0
    assert RecSubgraph.from_edges(2, 3, [], []).n_selected == 0
    unsigned = np.array([1], dtype=np.uint32)
    assert BipartiteGraph(2, 3, unsigned, unsigned).edge_list() == [(1, 1)]


def test_parallel_edges_kept_and_flagged():
    g = build_graph(1, 2, [(0, 1), (0, 1), (0, 0)])
    assert g.m == 3
    assert g.has_parallel_edges()
    assert g.distinct_in_degrees().tolist() == [1, 1]


def test_key_space_must_fit_int64():
    with pytest.raises(GraphError, match=r"2\*\*63"):
        build_graph(1 << 32, 1 << 31, [])


def test_keys_decode_as_divmod_at_the_widest_r():
    # r = 2**31 - 1: keys at both ends of the first and last sources' ranges.
    # Only l- and key-sized views are read; an r-sized one (in-degrees, the
    # by-target index) would allocate 2**31 entries.
    l, r = 3, 2**31 - 1
    keys = [0, r - 1, r, l * r - 1]
    pairs = [divmod(k, r) for k in keys]
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    assert pairs == [(0, 0), (0, r - 1), (1, 0), (2, r - 1)]
    indptr = [0, 2, 3, 4]
    g = build_graph(l, r, pairs)
    assert g.edge_keys().tolist() == keys
    assert (g.edge_u.tolist(), g.edge_v.tolist(), g.indptr_l.tolist()) == (us, vs, indptr)
    sel = RecSubgraph._from_keys(l, r, np.array(keys, dtype=np.int64))
    assert (sel.indptr.tolist(), sel.targets.tolist()) == (indptr, vs)


@st.composite
def shuffled_multigraph(draw):
    l = draw(st.integers(1, 8))
    r = draw(st.integers(1, 8))
    edges = draw(
        st.lists(st.tuples(st.integers(0, l - 1), st.integers(0, r - 1)), max_size=40)
    )
    return l, r, draw(st.permutations(edges))


@given(shuffled_multigraph())
@settings(max_examples=200)
def test_one_key_sort_matches_lexsort_and_unique(pack):
    l, r, edges = pack
    g = build_graph(l, r, edges)
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    by_uv = np.lexsort((ev, eu))
    assert g.edge_u.tolist() == eu[by_uv].tolist()
    assert g.edge_v.tolist() == ev[by_uv].tolist()
    assert g.indptr_l.tolist() == [0, *np.cumsum(np.bincount(eu, minlength=l)).tolist()]

    uniq = np.unique(g.edge_keys())
    assert g.distinct_keys().tolist() == uniq.tolist()
    distinct_pairs = sorted(set(edges))
    assert uniq.tolist() == [u * r + v for u, v in distinct_pairs]
    assert g.distinct_in_degrees().tolist() == np.bincount(
        uniq % r, minlength=r
    ).tolist()
    assert simplify(g).edge_list() == distinct_pairs
    assert g.has_parallel_edges() == (len(distinct_pairs) < len(edges))


@st.composite
def multigraph_with_parallels(draw):
    """Sides from 0 up, with some drawn edges repeated."""
    l = draw(st.integers(0, 6))
    r = draw(st.integers(0, 6))
    if l == 0 or r == 0:
        return l, r, []
    edges = draw(
        st.lists(st.tuples(st.integers(0, l - 1), st.integers(0, r - 1)), max_size=30)
    )
    repeats = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    return l, r, edges + repeats


@given(multigraph_with_parallels())
@example((0, 3, []))
@example((3, 0, []))
@example((0, 0, []))
@settings(max_examples=200)
def test_by_target_matches_dict_of_sets(pack):
    l, r, edges = pack
    sources: dict[int, set[int]] = {v: set() for v in range(r)}
    for u, v in edges:
        sources[v].add(u)
    offsets, flat = _by_target(build_graph(l, r, edges))
    assert offsets.tolist() == [0, *accumulate(len(sources[v]) for v in range(r))]
    got = [flat[offsets[v] : offsets[v + 1]].tolist() for v in range(r)]
    assert got == [sorted(sources[v]) for v in range(r)]


def test_by_target_is_kept_read_only():
    g = build_graph(3, 4, [(2, 1), (0, 1), (0, 1), (1, 3), (2, 0), (1, 1)])
    offsets, sources = _by_target(g)
    again = _by_target(g)
    assert again[0] is offsets and again[1] is sources
    assert offsets.dtype == sources.dtype == np.int64
    # An independent decode: the distinct (v, u) pairs in order.
    pairs = sorted({(v, u) for u, v in g.edge_list()})
    assert sources.tolist() == [u for _, u in pairs]
    per_target = np.bincount([v for v, _ in pairs], minlength=g.r).tolist()
    assert offsets.tolist() == [0, *accumulate(per_target)]
    for arr in (offsets, sources):
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("l, r", [(0, 0), (0, 3), (3, 0), (3, 4)])
def test_edgeless_graphs_keep_empty_views(l, r):
    g = build_graph(l, r, [])
    for seed in (1, 2, 1):
        config = SolverConfig(ProblemParams(2, 1), seed=seed)
        for algo in ("sampling", "greedy"):
            sel, report = solve(g, algo, config)
            assert sel.n_selected == 0 and report.covered == 0
        assert exact_opt(g, ProblemParams(2, 1)) == 0
    offsets, sources = _by_target(g)
    assert offsets.tolist() == [0] * (r + 1) and sources.size == 0
    assert g._sampling_rank[0] == 1 and g._sampling_rank[1].size == 0


def _report_fields(report):
    return report.covered, report.upper_bound, report.ratio, report.peak_edges_held


def test_simplified_and_reread_graphs_keep_their_own_views(tmp_path):
    g = build_graph(4, 5, [(0, 1), (0, 1), (1, 1), (2, 4), (3, 0), (3, 0), (3, 2), (1, 4)])
    config = SolverConfig(ProblemParams(2, 1), seed=9)
    for algo in ("sampling", "greedy"):
        solve(g, algo, config)
    write_edge_list(g, tmp_path / "g.txt")
    with pytest.warns(UserWarning, match="duplicate"):
        back = read_edge_list(tmp_path / "g.txt")
    for h in (simplify(g), back):
        assert not h.has_parallel_edges()
        assert h._target_index is None and h._sampling_rank is None
        assert [x.tolist() for x in _by_target(h)] == [x.tolist() for x in _by_target(g)]
        fresh = BipartiteGraph(h.l, h.r, h.edge_u.copy(), h.edge_v.copy())
        for algo in ("sampling", "greedy"):
            sel, report = solve(h, algo, config)
            want, want_report = solve(fresh, algo, config)
            assert sel.edge_list() == want.edge_list()
            assert _report_fields(report) == _report_fields(want_report)
        assert h._target_index[1] is not g._target_index[1]
        assert h._sampling_rank[1] is not g._sampling_rank[1]


# Slots that hold the graph itself or views older than the kept index and
# ranking; every other slot counts against the budget below.
_GRAPH_DATA = {"l", "r", "m", "edge_u", "edge_v", "indptr_l", "_keys", "_distinct_keys",
               "_distinct_in_deg"}


def _kept_bytes(g):
    total = 0
    for name in set(BipartiteGraph.__slots__) - _GRAPH_DATA:
        held = getattr(g, name)
        for x in held if isinstance(held, tuple) else (held,):
            total += x.nbytes if isinstance(x, np.ndarray) else 0
    return total


@pytest.mark.parametrize("l, r, m", [(0, 3, 0), (3, 0, 0), (30, 40, 150), (200, 50, 3000)])
def test_kept_views_stay_within_their_byte_budget(l, r, m):
    # The index: 8 bytes per distinct edge and per offset; the ranking: 4 per edge.
    rng = np.random.default_rng(m)
    edges = zip(rng.integers(l, size=m).tolist(), rng.integers(r, size=m).tolist())
    g = build_graph(l, r, edges)
    for seed in (1, 2, 3):
        for algo, (c, a) in zip(("sampling", "greedy"), ((3, 1), (3, 2))):
            solve(g, algo, SolverConfig(ProblemParams(c, a), seed=seed))
    exact_opt(g, ProblemParams(2, 1))
    assert g._target_index is not None and g._sampling_rank is not None
    assert _kept_bytes(g) <= 8 * g.distinct_keys().size + 8 * (g.r + 1) + 4 * g.m


def test_build_graph_refuses_rows_that_are_not_pairs():
    with pytest.raises(GraphError, match=r"edges must be \(u, v\) pairs"):
        build_graph(2, 2, [(0, 1, 1)])


def test_arrays_immutable():
    g = build_graph(2, 2, [(0, 0)])
    with pytest.raises(ValueError):
        g.edge_u[0] = 1


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(c=0, a=1)
    with pytest.raises(ValueError):
        ProblemParams(c=1, a=0)
    with pytest.raises(ValueError):
        ProblemParams(c=True, a=1)
    with pytest.raises(ValueError, match="a must be an integer >= 1, got 1.5"):
        ProblemParams(c=1, a=1.5)
    # Past int64 numpy can hold neither; both once overflowed inside numpy.
    ProblemParams(c=2**63 - 1, a=2**63 - 1)
    with pytest.raises(ValueError, match=r"c must be < 2\*\*63, got 9223372036854775808"):
        ProblemParams(c=2**63, a=1)
    with pytest.raises(ValueError, match=r"a must be < 2\*\*63, got 9223372036854775808"):
        ProblemParams(c=1, a=2**63)


def test_coverage_single_edge():
    g = build_graph(1, 1, [(0, 0)])
    h = RecSubgraph.from_edges(1, 1, [0], [0])
    assert coverage(g, h, 1) == 1
    assert coverage(g, h, 2) == 0


def test_coverage_two_sources_one_target():
    g = build_graph(2, 1, [(0, 0), (1, 0)])
    h = RecSubgraph.from_edges(2, 1, [0, 1], [0, 0])
    assert coverage(g, h, 2) == 1


@pytest.mark.parametrize("a", [1.5, True, 0, "1"])
def test_coverage_refuses_a_that_is_not_a_positive_integer(a):
    g = build_graph(1, 1, [(0, 0)])
    h = RecSubgraph.from_edges(1, 1, [0], [0])
    with pytest.raises(ValueError, match="a must be an integer >= 1"):
        coverage(g, h, a)


def test_coverage_rejects_invalid_selection(monkeypatch):
    g = build_graph(2, 4, [(0, 0), (1, 1)])
    bad = RecSubgraph.from_edges(2, 4, [0], [3])
    with pytest.raises(SubgraphValidationError, match=r"^non-candidate edge \(0,3\)$"):
        coverage(g, bad, 1)
    # solve() names the strategy that produced the selection.
    runner = solvers._RUNNERS["greedy"]._replace(run=lambda graph, cells: [(bad._keys, 0, 0)])
    monkeypatch.setitem(solvers._RUNNERS, "greedy", runner)
    want = r"^greedy produced an invalid selection: non-candidate edge \(0,3\)$"
    with pytest.raises(SubgraphValidationError, match=want):
        solve(g, "greedy", SolverConfig(ProblemParams(c=1, a=1)))


def test_validate_clean():
    g = build_graph(2, 2, [(0, 0), (0, 1), (1, 0)])
    h = RecSubgraph.from_edges(2, 2, [0, 1], [0, 0])
    assert validate(g, h, ProblemParams(c=1, a=1)) == []


def test_validate_reports_cap():
    g = build_graph(1, 3, [(0, 0), (0, 1), (0, 2)])
    h = RecSubgraph.from_edges(1, 3, [0, 0], [0, 1])
    assert validate(g, h, ProblemParams(c=1, a=1)) == ["degree cap violated at u=0"]


def test_validate_reports_duplicate():
    g = build_graph(1, 2, [(0, 0), (0, 1)])
    h = RecSubgraph.from_edges(1, 2, [0, 0], [0, 0])
    problems = validate(g, h, ProblemParams(c=3, a=1))
    assert problems == ["duplicate edge (0,0)"]


def test_raw_selection_refuses_target_out_of_range():
    # Target 4 of source 0 would alias the key of candidate (1, 1) at r=3.
    with pytest.raises(ValueError, match=r"^target out of range \(0,4\)$"):
        RecSubgraph(2, 3, [0, 1, 1], [4])
    with pytest.raises(ValueError, match=r"^target out of range \(1,-1\)$"):
        RecSubgraph(2, 3, [0, 1, 2], [0, -1])
    with pytest.raises(ValueError, match=r"out of range at index 0: \(0, 4\)"):
        RecSubgraph.from_edges(2, 3, [0], [4])
    # An unsigned target too large for int64 is refused as given, not as -1.
    with pytest.raises(ValueError, match=r"^target out of range \(1,18446744073709551615\)$"):
        RecSubgraph(2, 2, [0, 0, 1], np.array([2**64 - 1], np.uint64))


@pytest.mark.parametrize("targets, ndim", [(5, 0), ([[2]], 2)])
def test_raw_selection_refuses_targets_that_are_not_1d(targets, ndim):
    # Refused before anything indexes them: a scalar once died with
    # IndexError, a 2-D array with numpy's broadcasting message.
    with pytest.raises(ValueError, match=rf"^selection targets must be 1-D, got {ndim}-D$"):
        RecSubgraph(1, 3, [0, 1], targets)


@pytest.mark.parametrize(
    "sel_u, sel_v",
    [
        ([[0]], [[2]]),  # a 2-D pair
        ([0, 0], [2]),  # unequal lengths
    ],
)
def test_from_edges_refuses_pairs_that_are_not_1d_and_equal_length(sel_u, sel_v):
    with pytest.raises(ValueError, match=r"^edge endpoint arrays must be 1-D and equal length$"):
        RecSubgraph.from_edges(1, 3, sel_u, sel_v)


@pytest.mark.parametrize(
    "l, r, indptr, targets",
    [
        (-1, 2, [], []),  # negative side size
        (2, -1, [0, 0, 0], []),
        (2, 2, [0, 2, 1], [0]),  # offsets decrease
        (2, 2, [1, 1, 1], [0]),  # offsets do not start at 0
        (2, 2, [0, 1], [0]),  # wrong number of offsets
        (2, 2, [0, 1, 2], [0]),  # last offset is not the target count
        (1, 3, [0, 2], [2, 0]),  # a source's targets decrease
    ],
)
def test_selection_offsets_must_form_a_csr(l, r, indptr, targets):
    with pytest.raises(ValueError):
        RecSubgraph(l, r, indptr, targets)


@pytest.mark.parametrize(
    "indptr, targets",
    [
        ([0, 1.7], [2.9]),  # once truncated to indptr [0 1], targets [2]
        ([0, 1], [2.0]),
        ([0.0, 1.0], [2]),
        ([0, 1], [True]),
        (np.array([0, 1], dtype=np.float32), np.array([2], dtype=np.int32)),
    ],
)
def test_selection_arrays_must_be_integers(indptr, targets):
    with pytest.raises(ValueError, match="offsets and targets must be integers"):
        RecSubgraph(1, 3, indptr, targets)


def test_selection_copies_the_callers_arrays():
    indptr = np.array([0, 1], dtype=np.int64)
    targets = np.array([2], dtype=np.int64)
    h = RecSubgraph(1, 3, indptr, targets)
    assert indptr.flags.writeable and targets.flags.writeable
    targets[0] = 1
    indptr[1] = 0
    assert h.edge_list() == [(0, 2)]
    assert h.indptr.tolist() == [0, 1]
    assert not (h.indptr.flags.writeable or h.targets.flags.writeable)


def test_selection_accepts_any_integer_dtype_and_empty_targets():
    h = RecSubgraph(1, 3, np.array([0, 1], dtype=np.uint8), np.array([2], dtype=np.int16))
    assert h.indptr.dtype == h.targets.dtype == np.int64
    assert h.edge_list() == [(0, 2)]
    assert RecSubgraph(2, 3, [0, 0, 0], []).n_selected == 0


def _offsets(lists) -> list[int]:
    return [0, *accumulate(len(xs) for xs in lists)]


@st.composite
def raw_selection(draw):
    """A candidate graph and a raw selection that may break every rule the
    constructor leaves to :func:`validate`.

    Each source's picks are drawn in range and ascending, as the constructor
    requires.
    """
    l = draw(st.integers(1, 5))
    r = draw(st.integers(1, 5))
    edges = draw(
        st.lists(st.tuples(st.integers(0, l - 1), st.integers(0, r - 1)), max_size=20)
    )
    lists = draw(
        st.lists(
            st.lists(st.integers(0, r - 1), max_size=6).map(sorted),
            min_size=l,
            max_size=l,
        )
    )
    return l, r, edges, lists


@given(
    raw_selection(), st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 4), st.integers(-2, 1)
)
@settings(max_examples=300)
def test_validate_reports_exactly_the_bad_picks(pack, c, at, stray):
    l, r, edges, lists = pack
    g = build_graph(l, r, edges)
    h = RecSubgraph(l, r, _offsets(lists), [v for xs in lists for v in xs])
    params = None if c is None else ProblemParams(c=c, a=1)

    want = []
    if c is not None:
        want += [f"degree cap violated at u={u}" for u, xs in enumerate(lists) if len(xs) > c]
    picks = [(u, v) for u, xs in enumerate(lists) for v in xs]
    want += [
        f"duplicate edge ({u},{v})"
        for u, v in sorted(set(picks))
        if picks.count((u, v)) > 1
    ]
    want += [
        f"non-candidate edge ({u},{v})"
        for u, v in sorted(set(picks) - set(edges))
    ]
    assert validate(g, h, params) == want

    # One more pick outside [0, r) is refused before validate sees it.
    u, v = at % l, stray if stray < 0 else r + stray
    bad = [sorted([*xs, v]) if i == u else xs for i, xs in enumerate(lists)]
    with pytest.raises(ValueError, match=rf"^target out of range \({u},{v}\)$"):
        RecSubgraph(l, r, _offsets(bad), [x for xs in bad for x in xs])


@given(shuffled_multigraph())
@settings(max_examples=200)
def test_from_edges_matches_lexsort(pack):
    l, r, picks = pack
    su = np.array([u for u, _ in picks], dtype=np.int64)
    sv = np.array([v for _, v in picks], dtype=np.int64)
    h = RecSubgraph.from_edges(l, r, su, sv)
    order = np.lexsort((sv, su))
    assert h.indptr.tolist() == [0, *np.cumsum(np.bincount(su, minlength=l)).tolist()]
    assert h.targets.tolist() == sv[order].tolist()
    assert h.edge_list() == sorted(picks)


def test_validate_reports_dimension_mismatch():
    g = build_graph(2, 2, [(0, 0)])
    h = RecSubgraph.from_edges(3, 2, [], [])
    assert "dimension mismatch" in validate(g, h)[0]


def _keep_all(g):
    """The no-pruning selection: every distinct candidate link."""
    s = simplify(g)
    return RecSubgraph.from_edges(s.l, s.r, s.edge_u, s.edge_v)


def test_full_subgraph_coverage_counts_degrees():
    g = build_graph(3, 4, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 2)])
    h = _keep_all(g)
    for a in (1, 2, 3, 4):
        want = int(np.count_nonzero(g.distinct_in_degrees() >= a))
        assert coverage(g, h, a) == want


@st.composite
def small_graph_and_selection(draw):
    l = draw(st.integers(1, 5))
    r = draw(st.integers(1, 5))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, l - 1), st.integers(0, r - 1)),
            unique=True,
            max_size=l * r,
        )
    )
    g = build_graph(l, r, edges)
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    chosen = [e for e, flag in zip(sorted(edges), keep) if flag]
    sel = RecSubgraph.from_edges(l, r, [u for u, _ in chosen], [v for _, v in chosen])
    return g, sel, chosen


@given(small_graph_and_selection(), st.integers(1, 4))
@settings(max_examples=150)
def test_coverage_monotone_in_edges_and_antitone_in_a(pack, a):
    g, h, chosen = pack
    base = coverage(g, h, a)
    assert 0 <= base <= g.r
    assert coverage(g, h, a + 1) <= base
    full = _keep_all(g)
    assert coverage(g, full, a) >= base


@given(small_graph_and_selection())
@settings(max_examples=100)
def test_validate_accepts_any_subselection(pack):
    g, h, _ = pack
    assert validate(g, h, ProblemParams(c=g.r, a=1)) == []


def test_selection_round_trips_lists():
    lists = [[1, 3], [], [0]]
    h = RecSubgraph.from_edges(3, 4, [0, 0, 2], [3, 1, 0])
    assert [h.targets[lo:hi].tolist() for lo, hi in zip(h.indptr[:-1], h.indptr[1:])] == lists
    assert h.n_selected == 3
    assert h.out_degrees().tolist() == [2, 0, 1]


@pytest.mark.parametrize(
    "keys",
    [
        np.array([3, 1], dtype=np.int64),
        np.array([-1, 2], dtype=np.int64),
        np.array([0, 6], dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.array([0, 1], dtype=np.int32),
        np.array([0.0, 1.0]),
    ],
    ids=["descending", "negative", "l*r", "past-l*r", "int32", "float"],
)
def test_from_keys_refuses_keys_that_do_not_ascend_in_range_as_int64(keys):
    with pytest.raises(ValueError, match="selection keys must"):
        RecSubgraph._from_keys(2, 3, keys)


@pytest.mark.parametrize(
    ("l", "r", "keys", "message"),
    [
        (2, 3, np.array([0, 1], dtype=np.int32), r"edge keys must be int64, got int32"),
        (2, 3, np.array([0.0, 1.0]), r"edge keys must be int64, got float64"),
        (2, 3, np.array([3, 1], dtype=np.int64), r"edge keys must ascend within \[0, 6\)"),
        (2, 3, np.array([-1, 2], dtype=np.int64), r"edge keys must ascend within \[0, 6\)"),
        (2, 3, np.array([0, 6], dtype=np.int64), r"edge keys must ascend within \[0, 6\)"),
        (2, 3, np.array([7], dtype=np.int64), r"edge keys must ascend within \[0, 6\)"),
        (2**31, 1, np.empty(0, dtype=np.int64), r"side sizes must be < 2\*\*31"),
        (1, 2**31, np.empty(0, dtype=np.int64), r"side sizes must be < 2\*\*31"),
    ],
    ids=["int32", "float", "descending", "negative", "l*r", "past-l*r", "huge-l", "huge-r"],
)
def test_graph_from_keys_refuses_keys_that_do_not_ascend_in_range_as_int64(l, r, keys, message):
    with pytest.raises(GraphError, match=message):
        BipartiteGraph._from_keys(l, r, keys)


@st.composite
def keyed_multigraph(draw):
    """Sides (edgeless and one-target graphs included) and endpoint pairs that may repeat."""
    l = draw(st.integers(0, 6))
    r = draw(st.integers(1, 6))
    n = draw(st.integers(0, 30)) if l else 0
    us = draw(st.lists(st.integers(0, max(l - 1, 0)), min_size=n, max_size=n))
    vs = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    return l, r, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


@given(keyed_multigraph())
@settings(max_examples=300)
@example((0, 1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))
@example((2, 1, np.array([1, 0, 1, 1]), np.array([0, 0, 0, 0])))
def test_graph_from_keys_equals_the_checked_constructor(pack):
    l, r, us, vs = pack
    want = BipartiteGraph(l, r, us, vs)
    keys = np.sort(us * r + vs)
    got = BipartiteGraph._from_keys(l, r, keys)
    assert got.edge_keys() is keys
    assert (got.l, got.r, got.m) == (want.l, want.r, want.m)
    for name in ("edge_keys", "distinct_keys", "distinct_in_degrees"):
        assert getattr(got, name)().tolist() == getattr(want, name)().tolist()
    for name in ("edge_u", "edge_v", "indptr_l"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    for arr in (got.edge_keys(), got.edge_u, got.edge_v, got.indptr_l):
        assert not arr.flags.writeable
    assert got.has_parallel_edges() == want.has_parallel_edges()

    # simplify builds from the graph's distinct keys, which it shares.
    s = simplify(got)
    again = BipartiteGraph(l, r, *np.divmod(got.distinct_keys(), r))
    assert not s.has_parallel_edges()
    assert s.edge_keys().tolist() == again.edge_keys().tolist()
    assert (s.edge_u.tolist(), s.edge_v.tolist()) == (again.edge_u.tolist(), again.edge_v.tolist())
    assert s.indptr_l.tolist() == again.indptr_l.tolist()
    if got.has_parallel_edges():
        assert s.edge_keys() is got.distinct_keys()
    else:
        assert s is got


@st.composite
def keyed_selection(draw):
    """A multigraph, edgeless ones included, and a multiset of pick keys
    that may repeat, miss the graph and pass any cap."""
    l = draw(st.integers(1, 5))
    r = draw(st.integers(1, 5))
    edges = draw(
        st.lists(st.tuples(st.integers(0, l - 1), st.integers(0, r - 1)), max_size=20)
    )
    keys = draw(st.lists(st.integers(0, l * r - 1), max_size=25))
    return l, r, edges, np.array(sorted(keys), dtype=np.int64)


@given(
    keyed_selection(), st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 4), st.integers(-2, 1)
)
@settings(max_examples=300)
@example((2, 2, [], np.array([1, 1, 3], dtype=np.int64)), 1, 0, 0)
def test_raw_constructor_from_edges_and_from_keys_agree(pack, c, at, stray):
    l, r, edges, keys = pack
    g = build_graph(l, r, edges)
    us, vs = np.divmod(keys, r)
    indptr = np.searchsorted(us, np.arange(l + 1))
    sel = RecSubgraph._from_keys(l, r, keys)
    assert sel._keys is keys
    params = None if c is None else ProblemParams(c=c, a=1)
    want = validate(g, sel, params)
    for made in (
        sel,
        RecSubgraph(l, r, indptr, vs),
        RecSubgraph.from_edges(l, r, us[::-1], vs[::-1]),
    ):
        assert made._keys.tolist() == keys.tolist()
        assert made.indptr.tolist() == indptr.tolist()
        assert made.targets.tolist() == vs.tolist()
        assert made.edge_list() == [divmod(k, r) for k in keys.tolist()]
        assert validate(g, made, params) == want

    # Both public constructors refuse the same pick outside [0, r).
    u, v = at % l, stray if stray < 0 else r + stray
    picks = sorted([*zip(us.tolist(), vs.tolist()), (u, v)])
    pu, pv = [p[0] for p in picks], [p[1] for p in picks]
    with pytest.raises(ValueError, match=rf"^target out of range \({u},{v}\)$"):
        RecSubgraph(l, r, np.searchsorted(pu, np.arange(l + 1)), pv)
    with pytest.raises(ValueError, match=rf"out of range at index \d+: \({u}, {v}\)"):
        RecSubgraph.from_edges(l, r, pu, pv)
