"""End-to-end command-line flows and exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from recsubgraph import CSV_HEADER, read_edge_list, read_subgraph, write_edge_list
from recsubgraph.cli import main
from conftest import chain_graph

ROOT = Path(__file__).resolve().parent.parent


def test_gen_solve_eval_round_trip(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "sel.txt"
    assert main([
        "gen", "fixed-degree", "--l", "50", "--r", "40", "--d", "5",
        "--seed", "3", "-o", str(gpath),
    ]) == 0
    # Files carry simple graphs: the 250 draws collapse to the distinct set.
    g = read_edge_list(gpath)
    assert g.m <= 250
    assert not g.has_parallel_edges()

    assert main([
        "solve", "--graph", str(gpath), "--algo", "greedy",
        "--c", "2", "--a", "1", "--seed", "3", "-o", str(spath),
    ]) == 0
    out = capsys.readouterr().out
    line = out.splitlines()[-1]
    assert line.startswith("covered=")
    for key in ("upper_bound=", "ratio=", "elapsed_ms=", "peak_edges_held="):
        assert key in line
    covered = int(line.split()[0].split("=")[1])
    assert covered > 0
    sel = read_subgraph(spath)
    assert sel.n_selected > 0

    assert main([
        "eval", "--graph", str(gpath), "--subgraph", str(spath),
        "--a", "1", "--c", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert f"covered={covered} " in out


def test_gen_erdos_renyi(tmp_path):
    gpath = tmp_path / "g.txt"
    assert main([
        "gen", "erdos-renyi", "--l", "30", "--r", "30", "--p", "0.1",
        "--seed", "1", "-o", str(gpath),
    ]) == 0
    g = read_edge_list(gpath)
    assert (g.l, g.r) == (30, 30)


def test_gen_missing_params_exits_1(tmp_path):
    assert main(["gen", "fixed-degree", "--l", "5", "-o", str(tmp_path / "g")]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "sampling", "--c", "nan"],
        ["solve", "--model", "fixed-degree", "--l", "5", "--r", "5", "--d", "2",
         "--algo", "greedy", "--c", "1"],
        ["oracle", "--graph", "g.txt", "--c", "1", "--a", "1", "--bogus"],
        [],
    ],
    ids=["malformed-value", "missing-required-flag", "unknown-flag", "no-verb"],
)
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--algo" in capsys.readouterr().out


def test_solve_all_algorithms_inline_model(capsys):
    for algo in ("sampling", "greedy", "partition"):
        code = main([
            "solve", "--model", "fixed-degree", "--l", "40", "--r", "40",
            "--d", "4", "--algo", algo, "--c", "2", "--a", "2", "--seed", "5",
        ])
        assert code == 0
        assert "covered=" in capsys.readouterr().out


def test_solve_partition_a_above_c_exits_1(capsys):
    code = main([
        "solve", "--model", "fixed-degree", "--l", "10", "--r", "10",
        "--d", "2", "--algo", "partition", "--c", "1", "--a", "2",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solve_partition_with_uncovered_positions_exits_0(capsys):
    # Positions 13-15 of R' lie in no window at l=3, c=11, a=2.
    code = main([
        "solve", "--model", "erdos-renyi", "--l", "3", "--r", "40", "--p", "0.3",
        "--algo", "partition", "--c", "11", "--a", "2", "--seed", "0",
    ])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "model_flags",
    [
        ["--model", "fixed-degree", "--r", "10", "--d", "2"],
        ["--model", "erdos-renyi", "--l", "10", "--r", "10"],
        ["--model", "fixed-degree", "--l", "10", "--r", "10", "--d", "2", "--seed", "-1"],
    ],
    ids=["fixed-degree-without-l", "erdos-renyi-without-p", "negative-seed"],
)
def test_solve_bad_instance_flags_exit_1(model_flags, capsys):
    code = main(["solve", *model_flags, "--algo", "greedy", "--c", "2", "--a", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_graph_file_exits_2(tmp_path, capsys):
    code = main([
        "solve", "--graph", str(tmp_path / "absent.txt"), "--algo", "greedy",
        "--c", "1", "--a", "1",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("bipartite 2 2 1\n0 zebra\n")
    code = main(["matching", "--graph", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_negative_selection_header_exits_2(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("bipartite 2 2 1\n0 0\n")
    sel = tmp_path / "s.txt"
    sel.write_text("recsubgraph -1 2 0\n")
    code = main(["eval", "--graph", str(graph), "--subgraph", str(sel), "--a", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_bounds_required_ck_table(capsys):
    assert main(["bounds", "required-ck", "--target", "0.95"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# a required_ck"
    table = {int(row.split()[0]): float(row.split()[1]) for row in lines[1:]}
    assert round(table[1], 2) == 3.00
    assert round(table[5], 2) == 13.48


def test_bounds_sampling_and_greedy(capsys):
    assert main([
        "bounds", "sampling", "--l", "1000", "--r", "1000", "--c", "3", "--a", "1",
    ]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(950.2129, abs=1e-3)
    assert main([
        "bounds", "greedy", "--l", "300", "--r", "300", "--c", "2", "--a", "2",
        "--p", "0.02",
    ]) == 0
    got = float(capsys.readouterr().out)
    assert 0.0 <= got <= 300.0


def test_bounds_concentration(capsys):
    assert main([
        "bounds", "concentration", "--l", "1000", "--r", "1000", "--c", "3", "--a", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "threshold=" in out and "prob_bound=" in out


def test_bounds_approx_ratio_floor(capsys):
    assert main(["bounds", "approx-ratio", "--ck-min", "0.5", "--ck-max", "2.0"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    vals = [float(row.split()[1]) for row in lines]
    assert min(vals) >= 1 - 1 / 2.718281828459045 - 1e-9


def test_oracle_small_graph(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("bipartite 2 3 4\n0 0\n0 1\n1 0\n1 2\n")
    assert main(["oracle", "--graph", str(gpath), "--c", "1", "--a", "2"]) == 0
    assert "exact_opt=1" in capsys.readouterr().out


def test_oracle_size_guard_exits_1(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    assert main([
        "gen", "fixed-degree", "--l", "30", "--r", "10", "--d", "2",
        "-o", str(gpath),
    ]) == 0
    capsys.readouterr()
    code = main(["oracle", "--graph", str(gpath), "--c", "1", "--a", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert main([
        "oracle", "--graph", str(gpath), "--c", "1", "--a", "1", "--force",
    ]) == 0
    assert "exact_opt=" in capsys.readouterr().out


def test_oracle_long_augmenting_path_exits_0(tmp_path, capsys):
    gpath = tmp_path / "chain.txt"
    write_edge_list(chain_graph(600), gpath)
    assert main([
        "oracle", "--graph", str(gpath), "--c", "1", "--a", "1", "--force",
    ]) == 0
    assert capsys.readouterr().out == "exact_opt=600\n"


def test_matching_subcommand(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("bipartite 2 2 3\n0 0\n0 1\n1 0\n")
    assert main(["matching", "--graph", str(gpath)]) == 0
    assert "size=2" in capsys.readouterr().out
    assert main(["matching", "--graph", str(gpath), "--max-path-len", "1"]) == 0
    assert "size=" in capsys.readouterr().out


def test_experiment_flags_to_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    plot_path = tmp_path / "plot.dat"
    code = main([
        "experiment", "--model", "fixed-degree", "--l", "30", "--r", "30",
        "--d", "5", "--c-min", "1", "--c-max", "3", "--a", "1",
        "--algos", "sampling,greedy", "--trials", "2", "--base-seed", "9",
        "--no-timing", "--csv", str(csv_path), "--plot", str(plot_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2 * 2
    assert plot_path.exists()
    out = capsys.readouterr().out
    assert "mean_ratio" in out


def test_experiment_spec_file_with_overrides(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "model": "fixed-degree", "l": 20, "r": 20, "d": 3,
        "sweep": [[1, 1]], "algos": ["greedy"], "trials": 1,
    }))
    csv_path = tmp_path / "rows.csv"
    code = main([
        "experiment", "--spec", str(spec_path), "--trials", "3",
        "--no-timing", "--csv", str(csv_path),
    ])
    assert code == 0
    assert len(csv_path.read_text().splitlines()) == 1 + 3


def test_experiment_skip_note(tmp_path, capsys):
    code = main([
        "experiment", "--model", "fixed-degree", "--l", "10", "--r", "10",
        "--d", "2", "--pairs", "1,2", "--algos", "partition,greedy",
        "--trials", "1", "--no-timing",
    ])
    assert code == 0
    assert "# skipped 1 cell run(s)" in capsys.readouterr().out


def test_experiment_csv_bytes_reproducible(tmp_path):
    args = [
        "experiment", "--model", "erdos-renyi", "--l", "25", "--r", "25",
        "--p", "0.15", "--pairs", "1,1 2,1", "--algos", "sampling,greedy,partition",
        "--trials", "2", "--base-seed", "4", "--no-timing",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(p1)]) == 0
    assert main(args + ["--csv", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_spec_json_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{not json")
    assert main(["experiment", "--spec", str(spec_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_experiment_with_unprunable_budget_keeps_stderr_clean(tmp_path):
    # c=11 exceeds every source degree and only partition runs: nothing may warn.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "recsubgraph.cli", "experiment",
            "--model", "erdos-renyi", "--l", "3", "--r", "40", "--p", "0.3",
            "--c-min", "11", "--c-max", "11", "--a", "2", "--algos", "partition",
            "--trials", "3", "--base-seed", "0", "--no-timing", "--csv", "out.csv",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "out.csv").exists()
