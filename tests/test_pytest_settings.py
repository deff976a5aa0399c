"""The suite's pytest settings, run on a small test file in a child pytest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 5


def test_the_next_test():
    pass
'''


def test_a_failing_property_test_leaves_the_rest_of_the_run(tmp_path):
    # with warnings as errors, hypothesis's teardown warning after a failed
    # @given test once stopped the run with an INTERNALERROR, the next test unrun
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
