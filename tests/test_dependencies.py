"""numpy stays the only runtime dependency, and the trace chunk sizes stay in ``learning``.

Every module under ``src/persuasion_lab`` is parsed, not imported, so an
import inside a function or behind a branch counts as well.  Each import
must name the standard library, numpy, or the package itself.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "persuasion_lab"
MODULES = sorted(PACKAGE.rglob("*.py"))
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "persuasion_lab"}


def imported_roots(tree: ast.AST):
    """``(line, top-level name)`` of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_module_is_walked():
    assert {"__init__.py", "cli.py", "simplex.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_imports_are_stdlib_numpy_or_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [
        f"line {line}: {root}" for line, root in imported_roots(tree) if root not in ALLOWED
    ]
    assert foreign == []


CHUNK_NAMES = {"SIMULATE_CHUNK", "TRACE_CHUNK"}


def named(tree: ast.AST):
    """``(line, name)`` of every name, attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "learning.py"],
    ids=lambda p: p.relative_to(PACKAGE).as_posix(),
)
def test_only_learning_names_the_trace_chunk_sizes(path):
    # the trace's chunk layout stays behind ``learning``; other modules read
    # a trace through ``SimulationTrace.chunks``
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {line}: {name}" for line, name in named(tree) if name in CHUNK_NAMES]
    assert found == []
