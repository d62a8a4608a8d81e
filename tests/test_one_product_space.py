"""The package builds its tensor spaces and its operators in one place each,
and tests irreducibility one way.

KoszulContext.spot_space caches one ProductSpace per spot; a ProductSpace
built anywhere else would walk the same grading a second time.
KoszulContext.operator is the one builder and cache of d, del, P and Q; a
Kronecker product of factor maps anywhere else would be a second builder.
GLAction.product_matrix is the one super derivation: only it lifts a
generator past a left factor with the crossing sign, on power bases and
built modules alike.
GLModule.is_irreducible is the one irreducibility test: only it closes a
singular line (submodule_span), and no dual module is built, since a unique
singular line that generates the module already decides irreducibility.
harness.check_module is the one check of a module, for verify and construct
alike: only it runs the irreducibility test.
Each certificate decides alone: no mixed square is composed on its spot
(only the identities and the two squared maps compose words), and the
equivariance of an operator is checked once, at its line spot.
The pair splitting's ranks extend the shared Im d: xdanh_check builds no
composite del.d and no stacked map, and GLModule.raising_kernel cuts the
raising generators into weight blocks with no stacked map either.  The g0
count of a loop's space is read in one place, loop_blocks, where it only
says where to seek singular vectors.
A spectrum is decided one way, by nullities over the loop's candidate
eigenvalues: no characteristic polynomial is taken outside linalg, and
verify_spectrum catches nothing to fall back on.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "superkoszul"


def _calls(tree, callee, keep=lambda call: True):
    """Qualified name of the function around each call of callee, called by
    its bare name or as an attribute (obj.callee(...)), that keep accepts."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == callee and keep(node):
                found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _package_calls(callee, keep=lambda call: True):
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{q}" for q in _calls(tree, callee, keep)]
    return found


def test_product_space_is_built_only_in_spot_space():
    assert _package_calls("ProductSpace") == ["koszul.py:KoszulContext.spot_space"]


def test_kron_is_called_only_in_operator():
    assert _package_calls("kron") == ["koszul.py:KoszulContext.operator"]


def test_no_dual_module_in_the_package():
    assert _package_calls("dual_module") == []


def test_submodule_span_is_called_only_in_is_irreducible():
    assert _package_calls("submodule_span") == ["glrep.py:GLModule.is_irreducible"]


def test_is_irreducible_is_called_only_in_check_module():
    assert _package_calls("is_irreducible") == ["harness.py:check_module"]


def test_the_super_derivation_sign_is_applied_only_in_product_matrix():
    # a lift given the left factor's parities is an odd E_ij crossing it:
    # the one derivation code, whatever its factors are
    def signed(call):
        return len(call.args) >= 3 or any(
            k.arg == "left_parities" for k in call.keywords)

    assert _package_calls("lift", signed) == ["glrep.py:GLAction.product_matrix"]


def test_composed_is_called_only_by_the_identities_and_the_squares():
    assert sorted(_package_calls("composed")) == [
        "koszul.py:KoszulContext.composed_to",
        "koszul.py:KoszulContext.d_squared_is_zero",
        "koszul.py:KoszulContext.p_squared_is_zero",
    ]


def test_composed_to_is_called_only_by_identity():
    assert _package_calls("composed_to") == ["koszul.py:KoszulContext._identity"]


def test_equivariance_is_checked_once_in_check_equivariance():
    assert _package_calls("_equivariance_at") == ["glrep.py:check_equivariance"]


def _function(module, qualname):
    """The ast node of the named function (Class.method) in the module."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    node = tree
    for name in qualname.split("."):
        node = next(n for n in ast.iter_child_nodes(node)
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                    and n.name == name)
    return node


def test_xdanh_check_composes_and_stacks_nothing():
    # Im(del.d) is del applied to the shared Im d: no composite del.d and
    # no stacked map whose rank is taken
    body = _function("koszul.py", "KoszulContext.xdanh_check")
    assert not any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                   for n in ast.walk(body))
    assert not [c for c in ("compose", "blocked_rank", "numerator_blocks")
                if _calls(body, c)]


def test_raising_kernel_stacks_and_splits_nothing():
    # each weight block is built straight from the raising generators'
    # entries: no stacked map and no split of one
    body = _function("glrep.py", "GLModule.raising_kernel")
    assert not [c for c in ("numerator_blocks", "split_graded")
                if _calls(body, c)]


def test_the_g0_count_is_read_only_by_loop_blocks():
    assert _package_calls("g0_multiplicities") == [
        "koszul.py:KoszulContext.loop_blocks"]


def test_the_spectrum_is_decided_by_nullities_alone():
    # char_poly and rational_spectrum stay in linalg as the tests' reference;
    # no package code reaches them, and verify_spectrum has no second route
    # behind a try
    assert _package_calls("rational_spectrum") == []
    assert _package_calls("char_poly") == ["linalg.py:SparseMap.rational_spectrum"]
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    for name in ("verify_spectrum", "_block_multiplicities"):
        body = _function("koszul.py", name)
        assert not any(isinstance(n, tries) for n in ast.walk(body)), name
