"""The suite's own configuration, run the way CI runs it."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 5
'''


def test_hypothesis_failures_report_under_warnings_as_errors(tmp_path):
    # The failing test runs with this suite's conftest, under the CI flags.
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    flags = ["-X", "dev", "-W", "error", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    run = subprocess.run(
        [sys.executable, *flags, "test_failing.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
