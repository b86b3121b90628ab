"""The suite's pytest settings let a failing property test fail on its own.

``filterwarnings = ["error"]`` turns warnings into exceptions.  A failing
``hypothesis`` test imports third-party code while it reports, and a
warning raised there must not end the session as an internal error
(exit code 3) that stops every later test.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
"""


def test_failing_property_test_fails_alone(tmp_path):
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(PROBE))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
