"""The suite's warning filters turn deprecations into failures, not crashes."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_failure(x):
    assert x < 0


def test_other_deprecation():
    warnings.warn("old", DeprecationWarning)


def test_after_the_failures():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # Hypothesis's failure report touches mypy_extensions.TypedDict, which
    # warns DeprecationWarning; under error::DeprecationWarning alone that
    # warning ended the run with INTERNALERROR (exit 3) before later tests ran.
    (tmp_path / "test_sample.py").write_text(_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_sample.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out
    assert "FAILED test_sample.py::test_other_deprecation - DeprecationWarning: old" in out
