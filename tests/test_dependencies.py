"""numpy stays the only runtime dependency.

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
