"""The package builds its tensor spaces in one place: KoszulContext.spot_space,
which caches one ProductSpace per spot.  A ProductSpace built anywhere else
would walk the same grading a second time."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "superkoszul"


def _product_space_calls(tree):
    """Qualified name of the function around each ProductSpace(...) call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "ProductSpace":
                found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_product_space_is_built_only_in_spot_space():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{q}" for q in _product_space_calls(tree)]
    assert found == ["koszul.py:KoszulContext.spot_space"]
