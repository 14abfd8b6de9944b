"""The test configuration itself: a failing hypothesis test is reported as a
failure under ``filterwarnings = error``, not as an internal error."""
import os
import subprocess
import sys
from pathlib import Path

import divfrontier

TESTS = Path(__file__).resolve().parent
FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(Path(divfrontier.__file__).parents[1])]))
    # the repository's pytest settings, with this directory's conftest loaded as a plugin
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest", "-c", str(TESTS.parent / "pyproject.toml")]
    run = subprocess.run(
        [sys.executable, *args, "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example: test_fails(" in out
    assert "INTERNALERROR" not in out
