"""Every name the benchmark's span recorder wraps is still defined.

``perfbench/tracer.py`` wraps functions and methods by name, so renaming or
removing one breaks only a traced benchmark run.  Resolving the names here
makes that rename fail the test suite too.
"""

import importlib
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
