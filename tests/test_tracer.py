"""Every name the benchmark's span recorder wraps is still defined.

``perfbench/tracer.py`` wraps functions and methods by name, so renaming or
removing one breaks only a traced benchmark run.  Resolving the names here,
and the signatures the recorder binds, makes that change fail the test
suite too.
"""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize("module, name", tracer.FUNCTIONS)
def test_traced_function_resolves(module, name):
    fn = getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), name)
    assert callable(fn)


@pytest.mark.parametrize("module, cls, name", tracer.METHODS)
def test_traced_method_resolves(module, cls, name):
    owner = getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), cls)
    assert callable(getattr(owner, name))


def test_bound_signatures_hold():
    # the recorder reads ``simulate``'s receiver argument, calls
    # ``to_csv(trace, path)`` and counts the simplex's ``iterations``
    learning = importlib.import_module(f"{tracer.PACKAGE}.learning")
    simplex = importlib.import_module(f"{tracer.PACKAGE}.simplex")
    assert "receiver" in inspect.signature(learning.simulate).parameters
    assert list(inspect.signature(learning.SimulationTrace.to_csv).parameters) == ["self", "path"]
    assert "iterations" in {f.name for f in dataclasses.fields(simplex.SimplexResult)}
