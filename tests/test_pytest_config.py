"""The suite's pytest settings let a failing property test fail on its own,
and make a passing xfail fail the run.

``filterwarnings = ["error"]`` turns warnings into exceptions.  A failing
``hypothesis`` test imports third-party code while it reports, and a
warning raised there must not end the session as an internal error
(exit code 3) that stops every later test.  ``xfail_strict = true`` reports
an ``xfail`` test that passes as a failure, so a mark that no longer records
a defect cannot stay silently.
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

XFAIL_PROBE = """
import pytest


@pytest.mark.xfail(reason="a defect that has been mended")
def test_passes_despite_its_mark():
    pass


@pytest.mark.xfail(reason="a defect that still holds")
def test_still_fails():
    assert False
"""


def run_probe(tmp_path, source):
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(source))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rX",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_failing_property_test_fails_alone(tmp_path):
    run = run_probe(tmp_path, PROBE)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_passing_xfail_fails_the_run(tmp_path):
    run = run_probe(tmp_path, XFAIL_PROBE)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "[XPASS(strict)] a defect that has been mended" in run.stdout
    assert "1 failed, 1 xfailed" in run.stdout
