"""Public counts are Python ``int``s, not numpy scalars.

A numpy count prints and compares like an int, so a test of its value alone
passes, but ``json.dumps`` refuses it.  Each check here asserts the type.
"""
import json

import pytest

from recsubgraph import (
    ALGORITHMS,
    ExperimentSpec,
    FixedDegreeSpec,
    ProblemParams,
    SolverConfig,
    bounded_matching,
    coverage,
    exact_opt,
    gen_fixed_degree,
    hopcroft_karp,
    run_experiment,
    solve,
    upper_bound_estimate,
)


def _graph():
    return gen_fixed_degree(FixedDegreeSpec(l=12, r=12, d=3, seed=2))


@pytest.mark.parametrize(
    "spec, c, a, opt",
    [
        # At a = 1 one matching closes the bracket, and exact_opt returns its lo.
        (FixedDegreeSpec(l=25, r=10, d=2, seed=0), 1, 1, 10),
        # Bracket 1..3 (test_oracle's size-guard case): the subset search decides.
        (FixedDegreeSpec(l=6, r=10, d=3, seed=4), 1, 2, 3),
    ],
    ids=["closed-bracket", "subset-search"],
)
def test_exact_opt_returns_an_int(spec, c, a, opt):
    got = exact_opt(gen_fixed_degree(spec), ProblemParams(c, a))
    assert got == opt
    assert type(got) is int


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_solve_reports_ints(algo):
    graph = _graph()
    params = ProblemParams(2, 1)
    sel, report = solve(graph, algo, SolverConfig(params, seed=3))
    for value in (report.covered, report.upper_bound, report.peak_edges_held):
        assert type(value) is int
    for value in (coverage(graph, sel, 1), upper_bound_estimate(graph, params)):
        assert type(value) is int
    json.dumps([report.covered, report.upper_bound, report.peak_edges_held])


def test_matchings_report_ints_on_both_engines(matching_engines):
    graph = _graph()
    for engine in matching_engines():
        for match in (hopcroft_karp(graph), bounded_matching(graph, 3)):
            assert type(match.size) is int, engine
            assert type(match.phases) is int, engine
            partners = match.match_l + match.match_r
            assert {type(x) for x in partners} == {int}, engine


def test_experiment_rows_hold_ints():
    spec = ExperimentSpec(
        model="fixed-degree", l=12, r=12, d=3, sweep=((2, 1), (3, 2)),
        algos=ALGORITHMS, trials=2, base_seed=5, measure_time=False,
    )
    rows, _ = run_experiment(spec)
    assert rows
    for row in rows:
        assert type(row.covered) is int, row
        assert type(row.upper_bound) is int, row
