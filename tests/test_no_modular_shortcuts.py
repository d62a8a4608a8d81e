"""The package computes over the integers and rationals exactly, with no
modular or probabilistic shortcut such as a Miller-Rabin primality test.
A three-argument pow(base, exp, mod) is the usual first step of one, so
none may appear in the package.

A future modular step that an exact certificate backs (say, a rank mod p
confirmed by an exact product) would change this test knowingly, naming
the certificate next to the call it allows."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "superkoszul"


def _is_modular_pow(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "pow"
            and len(node.args) + len(node.keywords) == 3)


def test_package_has_no_three_argument_pow():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _is_modular_pow(node)]
    assert found == []


def test_the_scan_sees_a_modular_pow():
    tree = ast.parse("x = pow(a, d, n)\ny = pow(a, d)\nz = pow(a, d, mod=n)")
    calls = [node for node in ast.walk(tree) if _is_modular_pow(node)]
    assert [c.lineno for c in calls] == [1, 3]
