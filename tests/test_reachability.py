"""The package keeps only what a CLI request reaches.

A fresh interpreter runs REQUESTS through `cli.main`, one after another in
one process with `--jobs 1`, under `sys.setprofile`, and records every code
object entered.  Every function the package defines (each `def`, found by
parsing the package's source) must be entered by some request, or be on
ALLOWED with the reason it is kept.  The run is made in a fresh interpreter,
so that what earlier tests built and cached cannot hide a function.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "superkoszul"

SMALL_PLAN = ("--max-k 2 --max-l 2 --max-i 1 --max-a 1 --max-p 1 --max-r 1"
              " --jobs 1")

# (request, its exit code); {tmp} is a scratch directory
REQUESTS = (
    ("verify --jobs 1 --json {tmp}/report.json", 1),
    *((f"verify --m {m} --n {n} {SMALL_PLAN}", 0)
      for m, n in ((2, 1), (2, 2), (1, 2), (4, 1))),
    ("construct H31", 0),
    ("construct ImD 2 3", 0),
    ("construct Ysummand 1 1", 0),
    ("construct Z1 1", 0),
    ("construct Zk 1 2 1", 0),
    ("construct Mmp 1 1", 0),
    ("construct Mfinal 1 1 1", 0),
    ("construct Ilambda 2,1", 0),
    ("construct Ilambda 3", 0),
    ("construct Ilambda 1,1,1,-1", 0),
    ("spectrum delPQd 1 1", 1),
    ("spectrum PdeldQ 1 1 1", 0),
    ("character typical 2,1,-1|1", 0),
    ("character atypical 1,0,0|0", 0),
    ("character auto 2,1,-1|1", 0),
    ("character kac 2,1,-1|1", 0),
    ("character schur 2,1", 0),
    ("export matrix d 2,1", 0),
    ("export matrix del 1,2", 0),
    ("export matrix P 2,1", 0),
    ("export matrix Q 1,1 --out {tmp}/q.json", 0),
    ("export basis sym 3", 0),
    ("export basis alt 2 2,2", 0),
    ("export basis sym 2 2,1 --dual", 0),
    ("construct Foo 1", 2),
    ("construct ImD 1", 2),
    ("verify --m 0", 2),
)

# Functions no request enters, kept on purpose, as module.qualname.
ALLOWED = {
    # (a) no package caller, but perfbench/spans.py traces them by name:
    # they wait for ROADMAP item 1a.  char_poly, trace and _deflate are
    # reached only through rational_spectrum.
    "linalg.SparseMap.add",
    "linalg.SparseMap.rank",
    "linalg.SparseMap.image",
    "linalg.SparseMap.rational_spectrum",
    "linalg.SparseMap.char_poly",
    "linalg.SparseMap.trace",
    "linalg._deflate",
    "linalg.Subspace.intersect",
    "superspace.blocked_rank",
    "glrep.dual_module",
    # (b) the size budget of ROADMAP item 3 predicts sizes with them
    "superspace.sym_dim",
    "superspace.alt_dim",
    "superspace._binom",
    # (c) the API the tests build and compare with
    "linalg.SparseMap.__init__",
    "linalg.SparseMap.from_columns",
    "linalg.SparseMap.entry",
    "linalg.SparseMap.__add__",
    "linalg.SparseMap.__sub__",
    "characters.LaurentPoly.sub_y_neg",
    "harness.stable_body",
    # (d) reprs, equality and hashing, the frozen guards of a module, and
    # the negation the fraction comparison tests use
    "superspace.SuperSpace.__eq__",
    "superspace.SuperSpace.__hash__",
    "superspace.SuperSpace.__repr__",
    "superspace.PowerBasis.__repr__",
    "superspace.ProductSpace.__repr__",
    "linalg.SparseMap.__repr__",
    "linalg.Subspace.__repr__",
    "koszul.Spot.__repr__",
    "characters.LaurentPoly.__repr__",
    "characters.CharFraction.__repr__",
    "characters.CharFraction.__neg__",
    "harness.VerificationPlan.__eq__",
    "harness.VerificationPlan.__repr__",
    "glrep.GLModule.__setattr__",
    "glrep.GLModule.__delattr__",
    # (e) helpers that only build an error's message or witness
    "superspace._not_graded",
    "linalg.SparseMap.column",
}

RUNNER = """
import contextlib, io, json, sys
from superkoszul import cli

requests = json.loads(sys.argv[1])
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sink = io.StringIO()
sys.setprofile(profile)
try:
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [cli.main(argv) for argv in requests]
finally:
    sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(
    (c.co_filename, c.co_firstlineno, c.co_name) for c in entered)}))
"""


def package_functions():
    """(real path, first line, name) of each def in the package ->
    module.qualname.  A decorated function's code starts at its first
    decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[(path, first, child.name)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        walk(tree, os.path.realpath(path), f"{path.stem}.")
    return out


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The exit codes of REQUESTS and the package functions they entered."""
    tmp = tmp_path_factory.mktemp("requests")
    argvs = [text.format(tmp=tmp).split() for text, _ in REQUESTS]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(argvs)], capture_output=True,
        text=True, env=env, timeout=600, check=True).stdout
    run = json.loads(out)
    defs = package_functions()
    entered = {defs[(os.path.realpath(f), line, name)]
               for f, line, name in run["entered"]
               if (os.path.realpath(f), line, name) in defs}
    return run["codes"], entered, set(defs.values())


def test_every_request_ran_to_its_exit_code(reached):
    codes, _, _ = reached
    assert codes == [code for _, code in REQUESTS]


def test_every_package_function_is_reached_or_allowed(reached):
    _, entered, defined = reached
    assert sorted(defined - entered - ALLOWED) == []


def test_the_allowlist_names_only_unreached_functions(reached):
    _, entered, defined = reached
    assert sorted(ALLOWED - defined) == []
    assert sorted(ALLOWED & entered) == []
