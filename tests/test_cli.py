"""End-to-end command-line flows and exit codes."""
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from recsubgraph import (
    CSV_HEADER,
    ExperimentRow,
    hopcroft_karp,
    read_edge_list,
    read_subgraph,
    write_edge_list,
)
from recsubgraph.cli import main
from conftest import chain_graph

ROOT = Path(__file__).resolve().parent.parent
# 4 sources, 5 targets; source 0 has the largest out-degree, 3.
_GRAPH = "bipartite 4 5 7\n0 0\n0 1\n0 2\n1 1\n2 3\n3 3\n3 4\n"


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
        ["solve", "--model", "fixed-degree", "--l", "5", "--r", "5", "--d", "2",
         "--algo", "greedy", "--c", "1", "--a", "1", "--greedy-order", "input-order"],
        ["oracle", "--graph", "g.txt", "--c", "1", "--a", "1", "--force"],
    ],
    ids=["malformed-value", "missing-required-flag", "unknown-flag", "no-verb",
         "removed-greedy-flag", "removed-oracle-force"],
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
        # Refused by the spec before any array is allocated.
        ["--model", "fixed-degree", "--l", "100000000000", "--r", "100000000000", "--d", "2"],
        ["--model", "erdos-renyi", "--l", "100000000000", "--r", "100000000000", "--p", "0.5"],
    ],
    ids=[
        "fixed-degree-without-l", "erdos-renyi-without-p", "negative-seed",
        "fixed-degree-huge-sides", "erdos-renyi-huge-sides",
    ],
)
def test_solve_bad_instance_flags_exit_1(model_flags, capsys):
    code = main(["solve", *model_flags, "--algo", "greedy", "--c", "2", "--a", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


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


@pytest.mark.parametrize("huge", ["graph", "selection"])
def test_huge_header_sides_exit_2(tmp_path, capsys, huge):
    graph = tmp_path / "g.txt"
    graph.write_text("bipartite 2 2 1\n0 0\n")
    sel = tmp_path / "s.txt"
    sel.write_text("recsubgraph 2 2 1\n0 0\n")
    if huge == "graph":
        graph.write_text("bipartite 100000000000 5 1\n0 0\n")
        argv = ["solve", "--graph", str(graph), "--algo", "greedy", "--c", "1", "--a", "1"]
    else:
        sel.write_text("recsubgraph 100000000000 5 1\n0 0\n")
        argv = ["eval", "--graph", str(graph), "--subgraph", str(sel), "--a", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    bad = graph if huge == "graph" else sel
    assert f"error: {bad}: side sizes must be < 2**31" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("huge", ["graph", "selection"])
def test_eval_endpoint_of_2_63_under_a_side_of_2_64_exits_2(tmp_path, capsys, huge):
    # The endpoint is within the header's side, but int64 cannot hold it:
    # the side check must come before the lines are converted.
    graph = tmp_path / "g.txt"
    graph.write_text("bipartite 2 2 1\n0 0\n")
    sel = tmp_path / "s.txt"
    sel.write_text("recsubgraph 2 2 1\n0 0\n")
    bad = graph if huge == "graph" else sel
    magic = "bipartite" if huge == "graph" else "recsubgraph"
    bad.write_text(f"{magic} {2**64} 2 1\n{2**63} 0\n")
    assert main(["eval", "--graph", str(graph), "--subgraph", str(sel), "--a", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: side sizes must be < 2**31")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["graph", "selection"])
def test_non_utf8_file_exits_2(tmp_path, capsys, bad):
    graph = tmp_path / "g.txt"
    graph.write_text("bipartite 2 2 1\n0 0\n")
    sel = tmp_path / "s.txt"
    sel.write_text("recsubgraph 2 2 1\n0 0\n")
    if bad == "graph":
        graph.write_bytes(b"bipartite 2 2 1\n0 \xff\n")
        argv = ["solve", "--graph", str(graph), "--algo", "greedy", "--c", "1", "--a", "1"]
    else:
        sel.write_bytes(b"recsubgraph 2 2 1\n0 \xff\n")
        argv = ["eval", "--graph", str(graph), "--subgraph", str(sel), "--a", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    path = graph if bad == "graph" else sel
    assert f"error: {path}: not valid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(("bad", "offset"), [("graph", 19), ("selection", 21)])
def test_eval_names_the_stored_byte_of_a_utf8_error(tmp_path, capsys, bad, offset):
    # "\r\n" counts as two bytes: the offset is the file's own, not the text's.
    graph = tmp_path / "g.txt"
    graph.write_text("bipartite 2 2 1\n0 0\n")
    sel = tmp_path / "s.txt"
    sel.write_text("recsubgraph 2 2 1\n0 0\n")
    path = graph if bad == "graph" else sel
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n").replace(b"0\r\n", b"\xff\r\n"))
    assert main(["eval", "--graph", str(graph), "--subgraph", str(sel), "--a", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: not valid UTF-8 text (invalid start byte at byte {offset})\n"


# sha256 of the files these commands write at these seeds.
_GOLDEN_GEN = "c6df36a2ca3a42f76c848e4063536ecd8786f95292ce959aae44058aa2ef0a1e"
_GOLDEN_SELECTIONS = {
    ("sampling", 3, 1): "7a3cf6c65f4a9589f12e592d08f9114a9f6d6b7a5cd8a99e5a3f5be93af86f83",
    ("greedy", 3, 2): "c8d69efb4123e866173501662c7e38cfd5ca37c9237b89ab58b8e7d356e21ba8",
    ("partition", 3, 2): "ef664f85d5ecd1764dd4c8165942ba1f047d625055670af1e2a8821ad34a795a",
}


def test_gen_and_solve_files_keep_their_golden_bytes(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    assert main([
        "gen", "erdos-renyi", "--l", "300", "--r", "300", "--p", "0.02",
        "--seed", "301", "-o", str(graph),
    ]) == 0
    assert hashlib.sha256(graph.read_bytes()).hexdigest() == _GOLDEN_GEN
    for (algo, c, a), digest in _GOLDEN_SELECTIONS.items():
        sel = tmp_path / f"{algo}.sel"
        assert main([
            "solve", "--graph", str(graph), "--algo", algo, "--c", str(c), "--a", str(a),
            "--seed", "301", "-o", str(sel),
        ]) == 0
        assert hashlib.sha256(sel.read_bytes()).hexdigest() == digest, algo


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


def test_eval_invalid_selection_exits_1(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("bipartite 2 2 1\n0 0\n")
    sel = tmp_path / "s.txt"
    sel.write_text("recsubgraph 2 2 1\n0 1\n")
    assert main(["eval", "--graph", str(graph), "--subgraph", str(sel), "--a", "1"]) == 1
    assert capsys.readouterr().err == "error: non-candidate edge (0,1)\n"


def test_eval_default_budget_is_largest_out_degree(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("bipartite 3 2 5\n0 0\n0 1\n1 0\n1 1\n2 1\n")
    sel = tmp_path / "s.txt"
    sel.write_text("recsubgraph 3 2 3\n0 0\n0 1\n2 1\n")
    empty = tmp_path / "e.txt"
    empty.write_text("recsubgraph 3 2 0\n")

    def upper_bound(sub, *extra):
        argv = ["eval", "--graph", str(graph), "--subgraph", str(sub), "--a", "2"]
        assert main(argv + list(extra)) == 0
        return capsys.readouterr().out.split()[1]

    assert upper_bound(sel) == upper_bound(sel, "--c", "2") == "upper_bound=2"
    assert upper_bound(empty) == upper_bound(empty, "--c", "1") == "upper_bound=1"
    # --c below source 0's two picks scores the bound; it does not refuse them.
    argv = ["eval", "--graph", str(graph), "--subgraph", str(sel), "--a", "2", "--c", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "covered=1 upper_bound=1 ratio=1.000000\n"


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


def test_bounds_sampling_with_huge_a_prints_zero(capsys):
    assert main([
        "bounds", "sampling", "--l", "10", "--r", "10", "--c", "1", "--a", "100000000",
    ]) == 0
    assert capsys.readouterr().out == "0.000000\n"


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


@pytest.mark.parametrize(
    "argv, want",
    [
        (["bounds", "approx-ratio", "--ck-min", "1e-320", "--ck-max", "1e-319",
          "--step", "1e-321"], None),
        (["bounds", "sampling", "--l", "1", "--r", "100000000000000000", "--c", "1", "--a", "1"],
         "1.000000\n"),
        (["bounds", "concentration", "--r", "1000000000000000000", "--c", "1", "--l", "10",
          "--a", "1"], "threshold=-1000000000000000000.000000 prob_bound=2.100607e-02\n"),
    ],
    ids=["approx-ratio", "sampling", "concentration"],
)
def test_bounds_keep_their_precision_at_tiny_density(capsys, argv, want):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if want is None:  # every ratio of the table is 1 to ten places
        rows = out.splitlines()[1:]
        assert len(rows) == 91
        assert {row.split()[1] for row in rows} == {"1.0000000000"}
    else:
        assert out == want


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--algo", "greedy", "--c", "1", "--a", "1"],
         "need either --graph or --model with its parameters"),
        (["bounds", "sampling", "--l", "10", "--r", "10", "--c", "1"],
         "bounds sampling needs --a"),
        (["bounds", "greedy", "--l", "10", "--c", "1", "--a", "1"],
         "bounds greedy needs --r, --p"),
        (["bounds", "required-ck", "--a-min", "3", "--a-max", "2"],
         "need --a-min <= --a-max"),
        (["bounds", "approx-ratio", "--ck-max", "inf"],
         "--ck-min, --ck-max and --step must be finite and > 0"),
        (["bounds", "approx-ratio", "--ck-min", "2", "--ck-max", "1"],
         "need --ck-min <= --ck-max and a table of at most 100000 rows, got -100 steps"),
        (["experiment", "--c-min", "1"], "--c-min and --c-max go together"),
    ],
    ids=["no-graph-no-model", "bounds-flag-missing", "bounds-flags-missing",
         "a-range-reversed", "ck-not-finite", "ck-range-reversed", "c-min-alone"],
)
def test_refusals_exit_1_with_one_error_line(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {re.escape(message)}\n", captured.err)


def test_spec_file_holding_a_list_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"model": "fixed-degree"}]))
    assert main(["experiment", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(spec))}: a spec file must hold a JSON object\n", err)


def test_experiment_graph_file_without_model_runs_the_file_model(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(_GRAPH)
    csv = tmp_path / "out.csv"
    code = main([
        "experiment", "--graph", str(gpath), "--pairs", "2,1", "--algos", "greedy",
        "--no-timing", "--csv", str(csv),
    ])
    assert code == 0
    assert re.search(r"^\s+2\s+1\s+greedy\s+1\s+1\.0000\s+0\.0000$", capsys.readouterr().out, re.M)
    assert csv.read_text().splitlines()[1].startswith("file,4,5,-,2,1,greedy,0,")


def test_oracle_small_graph(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("bipartite 2 3 4\n0 0\n0 1\n1 0\n1 2\n")
    assert main(["oracle", "--graph", str(gpath), "--c", "1", "--a", "2"]) == 0
    assert "exact_opt=1" in capsys.readouterr().out


def test_oracle_size_guard_exits_1(tmp_path, capsys):
    # An open bracket whose subset search exceeds 2**20 subsets is refused.
    gpath = tmp_path / "open.txt"
    assert main([
        "gen", "fixed-degree", "--l", "500", "--r", "2000", "--d", "20", "--seed", "1",
        "-o", str(gpath),
    ]) == 0
    capsys.readouterr()
    code = main(["oracle", "--graph", str(gpath), "--c", "2", "--a", "2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # At a=1 the bracket closes: answered at any size, with no override.
    gpath = tmp_path / "g.txt"
    assert main([
        "gen", "fixed-degree", "--l", "30", "--r", "10", "--d", "2",
        "-o", str(gpath),
    ]) == 0
    capsys.readouterr()
    assert main(["oracle", "--graph", str(gpath), "--c", "1", "--a", "1"]) == 0
    want = hopcroft_karp(read_edge_list(gpath)).size
    assert capsys.readouterr().out == f"exact_opt={want}\n"


def test_oracle_long_augmenting_path_exits_0(tmp_path, capsys):
    gpath = tmp_path / "chain.txt"
    write_edge_list(chain_graph(600), gpath)
    assert main(["oracle", "--graph", str(gpath), "--c", "1", "--a", "1"]) == 0
    assert capsys.readouterr().out == "exact_opt=600\n"


def test_oracle_huge_c_answers_as_at_the_largest_out_degree(tmp_path, capsys):
    # No source gives more links than its out-degree, so c = 2**62
    # has the same optimum, computed without 2**62 copies of each source.
    gpath = tmp_path / "g.txt"
    gpath.write_text(_GRAPH)
    for a in (1, 2):
        assert main(["oracle", "--graph", str(gpath), "--c", "3", "--a", str(a)]) == 0
        want = capsys.readouterr().out
        assert main(["oracle", "--graph", str(gpath), "--c", str(2**62), "--a", str(a)]) == 0
        assert capsys.readouterr().out == want


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


def test_experiment_plot_file_written_when_every_cell_is_skipped(tmp_path, capsys):
    plot_path = tmp_path / "p.dat"
    code = main([
        "experiment", "--model", "fixed-degree", "--l", "5", "--r", "5", "--d", "2",
        "--pairs", "1,2", "--algos", "partition", "--plot", str(plot_path),
    ])
    assert code == 0
    assert plot_path.read_text() == "# c\n"
    assert "# skipped" in capsys.readouterr().out


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


def test_experiment_output_bytes_pinned(tmp_path, capsys):
    # A partition cell skipped at (c=1, a=2) and two a values, so two plot
    # files.  The digests pin the CSV, plot and summary bytes of the sweep.
    assert CSV_HEADER.split(",") == [
        f.name for f in dataclasses.fields(ExperimentRow) if f.name != "skip_reason"
    ]
    code = main([
        "experiment", "--model", "erdos-renyi", "--l", "30", "--r", "30",
        "--p", "0.15", "--pairs", "1,1 2,1 1,2 2,2",
        "--algos", "sampling,greedy,partition", "--trials", "2", "--base-seed", "5",
        "--no-timing", "--csv", str(tmp_path / "rows.csv"),
        "--plot", str(tmp_path / "plot.dat"),
    ])
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in sorted(p.name for p in tmp_path.iterdir())
    }
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == {
        "plot.a1.dat": "e4ade144bea1b416603c560879a7ffde311af872d12c2388a9c5d15cffa64090",
        "plot.a2.dat": "6d97b48622a24ef6ef1f14f89e68220b8f6ccdb23f014c96063c295e57201bda",
        "rows.csv": "22d23ed0236a109debee91dbbcbf8997abdaad8b84876c6d9bcf6e77d4fa0dd5",
        "stdout": "4d560d8b76670cb948cb6a46763ce9b1c1d8fce7c52b20e65c8adeab04c4de3d",
    }


def test_bad_spec_json_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{not json")
    assert main(["experiment", "--spec", str(spec_path)]) == 2
    assert "error:" in capsys.readouterr().err


def _run_cli(argv, cwd, timeout):
    """Run the CLI in a fresh interpreter on the working tree's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, "-m", "recsubgraph.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_experiment_with_unprunable_budget_keeps_stderr_clean(tmp_path):
    # c=11 exceeds every source degree and only partition runs: nothing may warn.
    proc = _run_cli(
        [
            "experiment",
            "--model", "erdos-renyi", "--l", "3", "--r", "40", "--p", "0.3",
            "--c-min", "11", "--c-max", "11", "--a", "2", "--algos", "partition",
            "--trials", "3", "--base-seed", "0", "--no-timing", "--csv", "out.csv",
        ],
        tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "out.csv").exists()


# A tiny valid spec; each edge case below breaks one thing about it.
_SPEC = {"model": "fixed-degree", "l": 4, "r": 4, "d": 2, "sweep": [[1, 1]], "trials": 1}
_SOLVE = ["solve", "--model", "fixed-degree", "--l", "4", "--r", "4", "--d", "2",
          "--algo", "partition", "--c", "1", "--a", "1"]
_EDGE_CASES = {
    "approx-ratio-step-0": (["bounds", "approx-ratio", "--step", "0"], None, 1),
    "approx-ratio-step-negative": (["bounds", "approx-ratio", "--step", "-0.5"], None, 1),
    "approx-ratio-step-1e-300": (["bounds", "approx-ratio", "--step", "1e-300"], None, 1),
    "approx-ratio-ck-max-inf": (["bounds", "approx-ratio", "--ck-max", "inf"], None, 1),
    "approx-ratio-ck-min-nan": (["bounds", "approx-ratio", "--ck-min", "nan"], None, 1),
    "approx-ratio-ck-min-0": (["bounds", "approx-ratio", "--ck-min", "0"], None, 1),
    "approx-ratio-reversed": (
        ["bounds", "approx-ratio", "--ck-min", "2", "--ck-max", "1"], None, 1
    ),
    "required-ck-a-max-huge": (["bounds", "required-ck", "--a-max", "100000000"], None, 1),
    "required-ck-reversed": (["bounds", "required-ck", "--a-min", "3", "--a-max", "2"], None, 1),
    "required-ck-a-174": (["bounds", "required-ck", "--a-min", "174", "--a-max", "174"], None, 1),
    "solve-c-past-int64": (
        ["solve", "--graph", "g.txt", "--algo", "sampling", "--c", "9" * 20, "--a", "1"], None, 1
    ),
    "oracle-a-past-int64": (["oracle", "--graph", "g.txt", "--c", "1", "--a", "9" * 20], None, 1),
    "experiment-c-past-int64": (
        ["experiment", "--model", "fixed-degree", "--l", "5", "--r", "5", "--d", "2",
         "--pairs", "9" * 20 + ",1", "--algos", "sampling"],
        None,
        1,
    ),
    "spec-top-level-list": (["experiment", "--spec", "spec.json"], [], 2),
    "spec-unknown-key": (["experiment", "--spec", "spec.json"], {**_SPEC, "bogus": 1}, 1),
    "spec-sweep-int": (["experiment", "--spec", "spec.json"], {**_SPEC, "sweep": 5}, 1),
    "spec-trials-string": (["experiment", "--spec", "spec.json"], {**_SPEC, "trials": "3"}, 1),
    "spec-l-string": (["experiment", "--spec", "spec.json"], {**_SPEC, "l": "5"}, 1),
    "spec-epsilon-string": (["experiment", "--spec", "spec.json"], {**_SPEC, "epsilon": "x"}, 1),
    "spec-measure-time-string": (
        ["experiment", "--spec", "spec.json"], {**_SPEC, "measure_time": "false"}, 1
    ),
    "spec-file-path-int": (
        ["experiment", "--spec", "spec.json"], {"model": "file", "path": 7, "sweep": [[1, 1]]}, 1
    ),
    "spec-c-range-int": (
        ["experiment", "--spec", "spec.json"],
        {k: v for k, v in _SPEC.items() if k != "sweep"} | {"c_range": 5},
        1,
    ),
    "experiment-without-model": (["experiment"], None, 1),
    "solve-epsilon-nan": ([*_SOLVE, "--epsilon", "nan"], None, 1),
    "solve-p-nan": (
        ["solve", "--model", "erdos-renyi", "--l", "4", "--r", "4", "--p", "nan",
         "--algo", "greedy", "--c", "1", "--a", "1"],
        None,
        1,
    ),
    "solve-seed-negative": ([*_SOLVE, "--seed", "-1"], None, 1),
    "solve-partition-c-times-l-2-31": (
        ["solve", "--model", "fixed-degree", "--l", "1", "--r", "3", "--d", "2",
         "--algo", "partition", "--c", str(2**31), "--a", "1"],
        None,
        1,
    ),
    "solve-d-0": (
        ["solve", "--model", "fixed-degree", "--l", "4", "--r", "4", "--d", "0",
         "--algo", "greedy", "--c", "1", "--a", "1"],
        None,
        1,
    ),
}


@pytest.mark.parametrize("argv, spec, code", _EDGE_CASES.values(), ids=_EDGE_CASES)
def test_edge_values_exit_with_one_error_line(tmp_path, argv, spec, code):
    # Each is refused before anything is printed or allocated: one error
    # line on stderr, no traceback, and well within the timeout.
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "g.txt").write_text(_GRAPH)
    proc = _run_cli(argv, tmp_path, timeout=30)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("verb", ["solve", "eval", "matching"])
def test_read_warning_is_one_line_without_python_source(tmp_path, verb):
    (tmp_path / "dup.txt").write_text("bipartite 2 2 3\n0 0\n0 0\n1 1\n")
    (tmp_path / "sel.txt").write_text("recsubgraph 2 2 1\n0 0\n")
    argv = {
        "solve": ["solve", "--graph", "dup.txt", "--algo", "greedy", "--c", "1", "--a", "1"],
        "eval": ["eval", "--graph", "dup.txt", "--subgraph", "sel.txt", "--a", "1"],
        "matching": ["matching", "--graph", "dup.txt"],
    }[verb]
    proc = _run_cli(argv, tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: dup.txt: 1 duplicate edge line(s) ignored\n"
    assert proc.stdout.strip()


@pytest.mark.parametrize("action", ["error", "ignore", "always"])
def test_read_warning_obeys_the_filters_in_force(tmp_path, capsys, action):
    # main only reformats a shown warning: an "error" filter still raises
    # it, an "ignore" filter still silences it, and an "always" filter shows
    # it as one "warning:" line.
    path = tmp_path / "dup.txt"
    path.write_text("bipartite 2 2 3\n0 0\n0 0\n1 1\n")
    argv = ["matching", "--graph", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        if action == "error":
            with pytest.raises(UserWarning, match="duplicate"):
                main(argv)
        else:
            assert main(argv) == 0
    err = capsys.readouterr().err
    if action == "always":
        assert err == f"warning: {path}: 1 duplicate edge line(s) ignored\n"
    else:
        assert "warning" not in err
