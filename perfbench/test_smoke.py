"""Smoke run of every workload at tiny size.

Each workload runs once untraced and once traced with ``--size smoke``.  The
test checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, that no output check failed, and that the traced run reproduces the
untraced run's outputs.  Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(result_line), json.loads(report_line)["report"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_metrics_and_checks(workload):
    plain, plain_report = _result(workload, 0)
    traced, traced_report = _result(workload, 1)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert plain_report["metrics"]["error_rate"]["value"] == 0
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    # Same seed, so the traced run must reproduce every recorded output.
    assert plain_report["digest"] == traced_report["digest"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
