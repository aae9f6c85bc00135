"""The suite's warning filters turn library warnings into failures, and
nothing else into a crash of the whole run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # a failing hypothesis test makes hypothesis import libcst to suggest a
    # patch, and that import raises a third-party DeprecationWarning
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
