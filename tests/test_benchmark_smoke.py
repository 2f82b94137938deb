"""One small benchmark run, so the suite sees the benchmark work end to end.

``perfbench/test_smoke.py`` runs every workload, traced and untraced; it
lies outside ``testpaths``.  This runs only ``certify`` at smoke size, the
workload that checks every strategy against the exact optimum.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_certify_smoke_run_checks_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
