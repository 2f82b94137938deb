"""Monte-Carlo sweep harness: row schema, determinism, aggregation."""
import json
import math

import pytest

from recsubgraph import (
    CSV_HEADER,
    ExperimentSpec,
    ProblemParams,
    SolverConfig,
    aggregate_rows,
    emit_csv,
    emit_plotdata,
    generate_instance,
    mix_seed,
    run_experiment,
    solve,
)
from recsubgraph import solvers


def _small_spec(**over):
    base = dict(
        model="fixed-degree",
        l=40,
        r=40,
        d=4,
        sweep=((2, 1), (3, 1)),
        algos=("sampling", "greedy"),
        trials=3,
        base_seed=7,
        measure_time=False,
    )
    base.update(over)
    return ExperimentSpec(**base)


def test_mix_seed_is_stable_and_spread():
    # Pinned behaviour: the derivation must never change silently, or every
    # recorded experiment becomes irreproducible.
    assert mix_seed(0, 0) == mix_seed(0, 0)
    seen = {mix_seed(7, t) for t in range(100)}
    assert len(seen) == 100
    assert mix_seed(7, 0) != mix_seed(8, 0)
    assert all(0 <= mix_seed(7, t) < 2**64 for t in range(10))


def test_rows_cover_every_cell():
    rows, _ = run_experiment(_small_spec())
    assert len(rows) == 2 * 2 * 3  # cells x algos x trials
    combos = {(row.c, row.a, row.algo, row.trial) for row in rows}
    assert len(combos) == len(rows)
    for row in rows:
        assert row.model == "fixed-degree"
        assert 0 <= row.covered <= row.upper_bound or row.upper_bound == 0
        assert 0.0 <= row.ratio <= 1.0
        assert row.elapsed_ms == 0.0
        assert row.skip_reason is None


def test_csv_shape(tmp_path):
    rows, _ = run_experiment(_small_spec())
    out = tmp_path / "rows.csv"
    emit_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    for line in lines[1:]:
        assert len(line.split(",")) == 13


def test_partition_cells_above_c_are_skipped(tmp_path):
    spec = _small_spec(sweep=((1, 2), (2, 2)), algos=("greedy", "partition"), trials=2)
    rows, _ = run_experiment(spec)
    skipped = [row for row in rows if row.skip_reason]
    assert len(skipped) == 2  # partition at (c=1, a=2), both trials
    assert all(row.algo == "partition" and row.c == 1 for row in skipped)
    out = tmp_path / "rows.csv"
    emit_csv(rows, out)
    for line in out.read_text().splitlines()[1:]:
        parts = line.split(",")
        if parts[6] == "partition" and parts[4] == "1":
            assert parts[9:13] == ["", "", "", ""]
        else:
            assert all(parts[9:13])


@pytest.mark.parametrize("bound, batches", [(700, "several"), (1 << 40, "one")])
def test_partition_cells_share_match_calls(monkeypatch, bound, batches):
    # At epsilon = 1 the depth caps bind (c = 1 allows only one-edge paths),
    # and cells of different c share a call, each window at its own cap.
    # (1, 2) and (2, 3) are skipped and never reach the matching.
    sweep = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 3), (5, 2))
    spec = _small_spec(l=60, r=200, d=6, sweep=sweep, algos=("partition", "greedy"), epsilon=1.0)
    calls = []  # the windows of each _match call

    def spy(keys, n_left, n_right, cap, windows):
        calls.append(windows)
        return real(keys, n_left, n_right, cap, windows)

    real = solvers._match
    monkeypatch.setattr(solvers, "_BATCH_MAX", bound)
    monkeypatch.setattr(solvers, "_match", spy)
    rows, _ = run_experiment(spec)
    monkeypatch.undo()
    cells = sum(row.algo == "partition" and row.skip_reason is None for row in rows)
    assert cells == 7 * spec.trials
    if batches == "one":
        assert calls == [sum(c for c, a in sweep if a <= c)] * spec.trials
    else:
        assert spec.trials < len(calls) < cells
    graphs = {}
    for row in rows:
        if row.skip_reason:
            continue
        if row.trial not in graphs:
            graphs[row.trial] = generate_instance("fixed-degree", row.seed, l=60, r=200, d=6)
        config = SolverConfig(ProblemParams(row.c, row.a), seed=row.seed, epsilon=1.0)
        _, report = solve(graphs[row.trial], row.algo, config)
        assert (row.covered, row.upper_bound, row.ratio) == (
            report.covered,
            report.upper_bound,
            report.ratio,
        )


def test_csv_bytes_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(_small_spec())[0], p1)
    emit_csv(run_experiment(_small_spec())[0], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_base_seed_changes_results():
    rows1, _ = run_experiment(_small_spec())
    rows2, _ = run_experiment(_small_spec(base_seed=8))
    assert [r.seed for r in rows1] != [r.seed for r in rows2]


def test_timing_column_populated_when_enabled():
    rows, _ = run_experiment(_small_spec(trials=1, measure_time=True))
    assert any(row.elapsed_ms > 0.0 for row in rows)


def test_erdos_renyi_model():
    spec = ExperimentSpec(
        model="erdos-renyi", l=30, r=30, p=0.2, sweep=((2, 1),),
        algos=("sampling",), trials=2, base_seed=1, measure_time=False,
    )
    rows, _ = run_experiment(spec)
    assert len(rows) == 2
    assert rows[0].d_or_p == "0.2"


def test_file_model_reuses_graph_across_trials(tmp_path):
    from recsubgraph import FixedDegreeSpec, gen_fixed_degree, simplify, write_edge_list

    g = simplify(gen_fixed_degree(FixedDegreeSpec(l=20, r=20, d=3, seed=4)))
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    spec = ExperimentSpec(
        model="file", path=str(path), sweep=((2, 1),), algos=("greedy",),
        trials=3, measure_time=False,
    )
    rows, _ = run_experiment(spec)
    assert len(rows) == 3
    assert all(row.l == 20 and row.d_or_p == "-" for row in rows)
    # Greedy is deterministic in the graph alone here, so coverage repeats.
    assert len({row.covered for row in rows}) == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        _small_spec(model="barabasi")
    with pytest.raises(ValueError):
        _small_spec(algos=("newton",))
    with pytest.raises(ValueError):
        _small_spec(trials=0)
    with pytest.raises(ValueError):
        _small_spec(sweep=())
    with pytest.raises(ValueError):
        _small_spec(d=None)  # fixed-degree needs d
    with pytest.raises(ValueError):
        ExperimentSpec(model="erdos-renyi", l=5, r=5, sweep=((1, 1),))  # needs p
    for path in (7, True, 1.5):  # an int would be opened as a file descriptor
        with pytest.raises(ValueError, match="path must be a str or os.PathLike"):
            ExperimentSpec(model="file", path=path, sweep=((1, 1),))
    with pytest.raises(ValueError, match=r"^a sweep cell must be a \(c, a\) pair, got \(1, 2, 3\)"):
        _small_spec(sweep=((1, 2, 3),))
    with pytest.raises(ValueError, match=r"^algos must be a non-empty tuple, got \['greedy'\]$"):
        _small_spec(algos=["greedy"])
    with pytest.raises(ValueError, match="^file model needs path$"):
        ExperimentSpec(model="file", sweep=((1, 1),))


def test_spec_from_mapping_with_c_range():
    spec = ExperimentSpec.from_mapping(
        {
            "model": "fixed-degree", "l": 20, "r": 20, "d": 3,
            "c_range": [1, 4], "a": 2, "trials": 2,
        }
    )
    assert spec.sweep == ((1, 2), (2, 2), (3, 2), (4, 2))


_MAPPING = {"model": "fixed-degree", "l": 10, "r": 10, "d": 3, "sweep": [[1, 1]]}


@pytest.mark.parametrize(
    "data",
    [
        [],
        {**_MAPPING, "bogus": 1},
        {**_MAPPING, "sweep": 5},
        {**_MAPPING, "sweep": [[1.5, 1]]},
        {**_MAPPING, "trials": "3"},
        {**_MAPPING, "a": 2},
        {k: v for k, v in _MAPPING.items() if k != "sweep"} | {"c_range": 5},
        {k: v for k, v in _MAPPING.items() if k != "sweep"} | {"c_range": [1, 2.5]},
        {k: v for k, v in _MAPPING.items() if k != "model"},
        {**_MAPPING, "l": "5"},
        {**_MAPPING, "r": 10.0},
        {**_MAPPING, "d": True},
        {**_MAPPING, "base_seed": None},
        {**_MAPPING, "epsilon": "x"},
        {**_MAPPING, "epsilon": False},
        {**_MAPPING, "model": "erdos-renyi", "d": None, "p": "0.5"},
        {**_MAPPING, "l": -5},
        {**_MAPPING, "r": 0},
        {**_MAPPING, "d": 0},
        {**_MAPPING, "model": "erdos-renyi", "d": None, "p": 1.5},
        {**_MAPPING, "epsilon": math.nan},
        {**_MAPPING, "epsilon": 0},
        {**_MAPPING, "epsilon": 5.0},
        {**_MAPPING, "base_seed": -1},
        {**_MAPPING, "base_seed": 2**64},
        {**_MAPPING, "measure_time": "false"},
    ],
    ids=[
        "list", "unknown-key", "sweep-int", "fractional-c", "trials-string",
        "a-with-sweep", "c-range-int", "c-range-fractional", "no-model",
        "l-string", "r-float", "d-bool", "base-seed-null", "epsilon-string",
        "epsilon-bool", "p-string", "l-negative", "r-zero", "d-zero", "p-above-1",
        "epsilon-nan", "epsilon-0", "epsilon-5", "base-seed-negative", "base-seed-2-64",
        "measure-time-string",
    ],
)
def test_spec_from_mapping_rejects_wrong_shapes(data):
    with pytest.raises(ValueError):
        ExperimentSpec.from_mapping(data)


def test_spec_from_json_round_trip(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({
        "model": "fixed-degree", "l": 10, "r": 10, "d": 3,
        "sweep": [[1, 1], [2, 1]], "algos": ["greedy"], "trials": 1,
        "measure_time": False,
    }))
    rows, _ = run_experiment(ExperimentSpec.from_mapping(json.loads(p.read_text())))
    assert len(rows) == 2


def test_aggregate_stats():
    rows, cells = run_experiment(_small_spec(trials=5))
    assert len(cells) == 4  # 2 sweep cells x 2 algos
    for cell in cells:
        assert cell.n == 5
        assert 0.0 <= cell.mean_ratio <= 1.0
        assert cell.stderr_ratio >= 0.0
    # Aggregation is pure: same rows in, same numbers out.
    again = aggregate_rows(rows)
    assert [c.mean_ratio for c in again] == [c.mean_ratio for c in cells]


def test_aggregate_excludes_skipped():
    spec = _small_spec(sweep=((1, 2),), algos=("greedy", "partition"), trials=2)
    _, cells = run_experiment(spec)
    assert [c.algo for c in cells] == ["greedy"]


def test_plotdata_one_file_per_a(tmp_path):
    spec = _small_spec(sweep=((1, 1), (2, 1), (1, 2), (2, 2)), trials=2)
    _, cells = run_experiment(spec)
    out = tmp_path / "quality.dat"
    emit_plotdata(cells, out)
    for a in (1, 2):
        path = tmp_path / f"quality.a{a}.dat"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# c ")
        assert len(lines) == 1 + 2  # two c values
        for line in lines[1:]:
            assert len(line.split()) == 1 + 2 * 2  # c + (mean, stderr) per algo


def test_plotdata_single_a_keeps_name(tmp_path):
    _, cells = run_experiment(_small_spec())
    out = tmp_path / "quality.dat"
    emit_plotdata(cells, out)
    assert out.exists()
    assert not (tmp_path / "quality.a1.dat").exists()
