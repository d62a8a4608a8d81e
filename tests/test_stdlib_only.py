"""The package is pure stdlib: every absolute import it makes, at module top
or inside a function, names a standard-library module or the package itself,
so it runs wherever a bare Python does."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "superkoszul"
ALLOWED = set(sys.stdlib_module_names) | {"superkoszul"}


def imported_names(tree):
    """Top-level names of the absolute imports anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}"
                  for line, name in imported_names(tree) if name not in ALLOWED]
    assert found == []


def test_the_check_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    import numpy.linalg\n    from . import x\n"
                     "    from sympy import Rational\n")
    assert sorted(name for _, name in imported_names(tree)) == ["numpy", "sympy"]
