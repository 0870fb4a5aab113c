"""The suite's own pytest settings keep a failing hypothesis test readable."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_falsified(n):
    assert n < 0
"""


def test_a_failing_hypothesis_test_keeps_its_report(tmp_path):
    # the suite's [tool.pytest.ini_options], warnings-as-errors included
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_falsified.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "FAILED test_falsified.py::test_falsified" in output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
