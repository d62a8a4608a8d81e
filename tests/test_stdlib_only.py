"""The package is pure stdlib: every absolute import it makes, at module top
or inside a function, names a standard-library module or the package itself,
so it runs wherever a bare Python does.  It also starts cheaply: no module
imports `dataclasses`, which loads `inspect`, `dis`, `ast` and `tokenize`
and builds each class's methods through `exec`, a cost every one-shot CLI
request would pay."""

import ast
import os
import subprocess
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


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line, name in imported_names(tree)
                  if name == "dataclasses"]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter; what the host's site hooks load before the
    # import does not count
    code = ("import sys; before = set(sys.modules); import superkoszul.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True).stdout
    loaded = set(out.split())
    assert "superkoszul.cli" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()
