"""Three small benchmark runs, so the suite sees the benchmark work end to end.

``perfbench/test_smoke.py`` runs every workload, traced and untraced; it
lies outside ``testpaths``.  This runs three at smoke size: ``certify``,
which checks every strategy against the exact optimum, ``files``, which runs
the command line's file round trip through the benchmark's own checks, and
``bulk``, which runs the fixed-degree generator's graph through them.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_smoke(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "0", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_certify_smoke_run_checks_clean():
    _run_smoke("certify")


def test_files_smoke_run_checks_clean():
    _run_smoke("files")


def test_bulk_smoke_run_checks_clean():
    _run_smoke("bulk")
