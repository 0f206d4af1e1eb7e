"""The repository's pytest configuration reports every test of a run,
also those after a failing property test."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
CHILD_TIMEOUT_S = 120

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_hide_the_next(tmp_path):
    # the failing example's report must not end the session: under
    # filterwarnings = error, a DeprecationWarning raised while hypothesis
    # reports it was an INTERNALERROR, and the second test never ran
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                          "test_two.py"],
                         capture_output=True, text=True, cwd=tmp_path,
                         timeout=CHILD_TIMEOUT_S)
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
