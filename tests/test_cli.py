"""Argument parsing, exit codes, and JSON output of the command line."""

import hashlib
import json
import os
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

import pytest

import superkoszul
from oracles import from_triples
from superkoszul.cli import main, parse_label, parse_ints
from superkoszul import harness, koszul
from superkoszul.harness import VerificationPlan, stable_body
from superkoszul.koszul import KoszulContext
from superkoszul.superspace import SuperSpace


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parsing helpers


def test_parse_label_forms():
    assert parse_label("2,1,0|-1") == (2, 1, 0, -1)
    assert parse_label("2, 1, 0, -1") == (2, 1, 0, -1)
    with pytest.raises(ValueError):
        parse_label("2,1|0|-1")
    with pytest.raises(ValueError):
        parse_label("1,2,3")
    with pytest.raises(ValueError):
        parse_label("a,b,c|d")


def test_parse_ints():
    assert parse_ints("2,1") == (2, 1)
    assert parse_ints("3,1 ") == (3, 1)


# ---------------------------------------------------------------------------
# verify


def test_verify_small_plan_ok(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--checks", "identities",
        "--max-k", "1", "--max-l", "1", "--max-p", "1", "--max-r", "1",
        "--json", str(out_file),
    )
    assert code == 0
    assert "fail 0" in out
    blob = json.loads(out_file.read_text())
    assert blob["summary"]["ok"]
    assert all(r["status"] == "pass" for r in blob["records"])


def test_verify_report_matches_schema(capsys, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--checks", "exactness",
        "--max-k", "3", "--max-a", "2", "--json", str(out_file),
    )
    assert code == 0
    schema = json.loads(
        files("superkoszul").joinpath("schemas/report.schema.json").read_text()
    )
    jsonschema.validate(json.loads(out_file.read_text()), schema)


@pytest.mark.parametrize("argv", [
    "verify --cache-dir x",
    "export matrix d 1,1 --cache-dir x",
    "export report",
])
def test_removed_cache_options_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_spectra_exits_one_on_finding(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--checks", "spectra",
        "--max-i", "1", "--max-a", "1", "--max-k", "1", "--max-l", "1",
    )
    assert code == 1
    assert "finding [SPECTRUM-DELPQD]" in out


def test_verify_rejects_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "bogus")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# construct / spectrum / character


def test_construct_y(capsys):
    code, out, _ = run_cli(capsys, "construct", "Ysummand", "1", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["highest_weight"] == [1, 0, 0, 1]
    assert blob["dim"] == 15


def test_construct_ilambda_partition(capsys):
    for shape, weight in (("2,1", [2, 1, 0, 0]), ("1,1,1,-1", [1, 1, 1, 1])):
        code, out, _ = run_cli(capsys, "construct", "Ilambda", shape)
        assert code == 0
        assert json.loads(out)["highest_weight"] == weight


def test_construct_reducible_image_is_a_failure(capsys):
    # ImD(4,2) sits on the degenerate line k - l = m - n: its singular space
    # is a plane, so the module is reducible and has no highest weight
    code, out, err = run_cli(capsys, "construct", "ImD", "4", "2")
    assert code == 1 and err == ""
    blob = json.loads(out)
    assert blob["highest_weight"] is None
    assert blob["irreducible"] is False and blob["singular_dim"] == 2
    v_leg = blob["characters"]["v_formula"]
    assert v_leg["label"] is None and "dimension 2" in v_leg["error"]
    assert blob["ok"] is False


def test_construct_image_on_the_degenerate_line_skips_the_closed_form(capsys):
    # ImD(2,0) also sits on the line k - l = m - n, where the closed image
    # character does not hold; the module is irreducible, and verify's
    # skip record gives the reason the closed leg is skipped
    code, out, err = run_cli(capsys, "construct", "ImD", "2", "0")
    assert code == 0 and err == ""
    blob = json.loads(out)
    assert blob["irreducible"] is True and blob["ok"] is True
    assert blob["highest_weight"] == [1, 1, 0, 0]
    assert blob["characters"]["closed_formula"] == {
        "claim": "IMD-SIMPLE",
        "skipped": "image coincides with the degenerate line"}
    assert blob["characters"]["v_formula"]["equal"] is True


def test_construct_unknown_name(capsys):
    code, _, err = run_cli(capsys, "construct", "Nonsense", "1")
    assert code == 2 and "error:" in err


def test_construct_bad_params(capsys):
    code, _, err = run_cli(capsys, "construct", "Mfinal", "0", "1", "1")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    "construct Zk 1 2",
    "construct Y 1",
    "construct ImD 1",
    "construct H31 5",
    "export matrix d 1",
    "export matrix d 1,2,3",
    "export matrix del 0,0",
    "export matrix P 0,1",
    "construct Mmp 0 1",
    "construct Zk 0 2 2",
    "construct Ysummand 0 1",
    "construct Zk 1 0 0",
    "spectrum delPQd 1",
    "spectrum delPQd 1 1 1",
    "spectrum PdeldQ 1 1",
    "export matrix d 1,1 3",
    "export basis sym 2 1,2,3",
])
def test_wrong_parameter_count_is_a_configuration_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and "error:" in err and "got" in err
    assert out == ""


def _captured_plan(monkeypatch, capsys, *flags):
    seen = []

    def fake_run(plan):
        seen.append(plan)
        return harness.Report(plan.as_dict(), [], []).finish()

    monkeypatch.setattr(harness, "run", fake_run)
    code, _, _ = run_cli(capsys, "verify", *flags)
    assert code == 0 and len(seen) == 1
    return seen[0]


def test_verify_flags_are_the_plan_fields(monkeypatch, capsys):
    assert _captured_plan(monkeypatch, capsys) == VerificationPlan()
    plan = _captured_plan(monkeypatch, capsys, "--m", "2", "--max-k", "2",
                          "--dim-cap", "50", "--jobs", "2",
                          "--checks", "identities, spectra")
    assert plan == VerificationPlan(m=2, max_k=2, dim_cap=50, jobs=2,
                                    checks=("identities", "spectra"))


def _run_cli_process(flags, *argv):
    src = str(Path(superkoszul.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-m", "superkoszul.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300)


def test_construct_is_unchanged_under_optimize():
    # python -O strips assert statements: checks the construction path
    # relies on must be typed errors, so both runs give the same answer
    plain, optimized = (_run_cli_process(flags, "construct", "H31")
                        for flags in ([], ["-O"]))
    assert plain.returncode == 0 and json.loads(plain.stdout)["ok"]
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout


def test_verify_is_unchanged_under_optimize(tmp_path):
    # the identity, homology and commutativity checks and the Cartan
    # equivariance test, run with and without assert statements
    runs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{len(runs)}.json"
        proc = _run_cli_process(
            flags, "verify", "--max-k", "2", "--max-l", "2", "--max-i", "1",
            "--max-a", "1", "--max-p", "1", "--max-r", "1", "--checks",
            "identities,exactness,commutativity,equivariance",
            "--json", str(out))
        runs.append((proc.returncode, stable_body(json.loads(out.read_text()))))
    (plain_code, plain_body), optimized = runs
    assert plain_code == 0 and '"fail": 0' in plain_body
    assert optimized == (plain_code, plain_body)


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1)])
def test_operator_groups_are_unchanged_under_optimize(tmp_path, m, n):
    # the int-over-den arithmetic of every operator group raises typed
    # errors only; (2|1) has no loop prediction, (3|1) runs the spectra
    runs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{len(runs)}.json"
        proc = _run_cli_process(
            flags, "verify", "--m", str(m), "--n", str(n), "--max-k", "2",
            "--max-l", "2", "--max-i", "1", "--max-a", "1", "--max-p", "2",
            "--max-r", "2", "--checks",
            "identities,exactness,commutativity,spectra,splittings",
            "--json", str(out))
        runs.append((proc.returncode, stable_body(json.loads(out.read_text()))))
    (plain_code, plain_body), optimized = runs
    # (3|1) reports the stated-spectrum finding, hence exit code 1
    assert plain_code == (0 if (m, n) == (2, 1) else 1)
    assert '"fail": 0' in plain_body
    assert optimized == (plain_code, plain_body)


# sha256 of each request's stdout, the first four recorded at commit
# a05e0b3 and the rest at 56da37c; the modules built from the splittings,
# the pair spaces and the hooks are meant to stay byte for byte the same
CONSTRUCT_STDOUT_SHA256 = {
    "Zk 1 2 2": "71cdf708f4bc8ac4ddbf16cbbb91e2b585b315c577e1e519edbdec660cf18d4a",
    "Mfinal 2 1 1": "abfb837628656c047c11520d177bec7b4c8302e68a1549ceb5414daf01bafc56",
    "Ysummand 2 2": "e48abcaf0ba245f443a53a1a879905e8a18b4f98187bf95765877626cb904f6b",
    "Z1 2": "1b303ca21daee79dfe8ce610b08b2f01541a27a41bfe455e693e524365baaa21",
    "H31": "4976c9b3088754452f5409d0393e52e9517f472b194094e4026c29d1af4be496",
    "ImD 2 3": "61969d5573254dd99db8bd84d785da804e9cd193296397489e72a3a71a776b01",
    "Ilambda 4,1": "1ecc3582f7152385e1dc3dd22c0b8992ff92336279b5ebcc5185505e79e38e62",
    "Ilambda 2,1,1,1": "64e98b734ad0eb71ca674962c288308ec57202c46c38caa681f46737494aafd2",
}


@pytest.mark.parametrize("query", sorted(CONSTRUCT_STDOUT_SHA256))
def test_construct_output_is_pinned(capsys, query):
    code, out, _ = run_cli(capsys, "construct", *query.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_STDOUT_SHA256[query]


def test_spectrum_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "delPQd", "0", "1")
    assert code == 0
    assert json.loads(out)["matches_stated"] is True
    code, out, _ = run_cli(capsys, "spectrum", "delPQd", "1", "1")
    assert code == 1
    assert json.loads(out)["matches_stated"] is False


def test_a_failed_check_exits_one_with_its_witness(monkeypatch, capsys,
                                                   tmp_path):
    # a check that raises its typed error is a failed check: a single
    # request prints the message and the JSON witness on stderr, and verify
    # records each failed cell with both and still writes its report; a
    # malformed request is still a configuration error
    weyl_dim = koszul.weyl_dim
    monkeypatch.setattr(koszul, "weyl_dim", lambda w, m: weyl_dim(w, m) + 1)
    message = "the gl0-singular blocks do not fill the loop's space"
    code, out, err = run_cli(capsys, "spectrum", "delPQd", "1", "1")
    assert code == 1 and out == ""
    line, witness = err.splitlines()
    assert line == f"error: {message}"
    witness = json.loads(witness)["witness"]
    assert witness["spot"] == "S_1.L_0.S*_2"
    assert witness["filled"] > witness["dim"]
    argv = ["verify", "--checks", "spectra", "--jobs", "1", "--max-i", "1",
            "--max-a", "1", "--max-k", "1", "--max-l", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "pass 0  fail 4  skip 0  findings 0"
    assert len(lines) == 5 and all(
        line.startswith("FAIL [SPECTRUM-") for line in lines[1:])
    path = tmp_path / "report.json"
    assert run_cli(capsys, *argv, "--json", str(path))[0] == 1
    records = json.loads(path.read_text(encoding="utf-8"))["records"]
    assert len(records) == 4
    for rec in records:
        assert rec["status"] == "fail", rec["params"]
        assert rec["witness"]["error"] == message
        witness = rec["witness"]["witness"]
        assert witness["filled"] > witness["dim"], rec["params"]
    first = next(r for r in records if r["params"] == {"i": 0, "a": 1})
    assert first["witness"]["witness"]["spot"] == "S_0.L_0.S*_1"
    code, out, err = run_cli(capsys, "spectrum", "delPQd", "-1", "0")
    assert code == 2 and out == ""
    assert err == "error: invalid loop parameters\n"


def test_a_cell_outside_its_candidates_fails_alone(monkeypatch, capsys,
                                                   tmp_path):
    # the (3|1) formula with its level j = 2 dropped at delPQd (1, 1): the
    # candidates do not fill that loop and nothing falls back, so a single
    # request exits 1 with the block's witness, and verify fails that cell
    # alone and still runs the other three
    argv = ["verify", "--checks", "spectra", "--jobs", "1", "--max-i", "1",
            "--max-a", "1", "--max-k", "1", "--max-l", "1", "--json"]
    # exit 1 here is the stated-set finding at (1, 1)
    assert run_cli(capsys, *argv, str(tmp_path / "whole.json"))[0] == 1
    whole = json.loads((tmp_path / "whole.json").read_text(encoding="utf-8"))
    assert whole["summary"]["fail"] == 0
    loop_setup = KoszulContext.loop_setup

    def short(ctx, kind, params):
        word, spot, derived, stated, candidates = loop_setup(ctx, kind, params)
        if (kind, tuple(params)) == ("delPQd", (1, 1)):
            assert Fraction(4, 3) in candidates == derived
            candidates = derived = candidates - {Fraction(4, 3)}
        return word, spot, derived, stated, candidates

    monkeypatch.setattr(KoszulContext, "loop_setup", short)
    code, out, err = run_cli(capsys, "spectrum", "delPQd", "1", "1")
    assert code == 1 and out == ""
    line, witness = err.splitlines()
    assert line.startswith("error: the candidate eigenvalues fill ")
    witness = json.loads(witness)["witness"]
    assert 0 <= witness["filled"] < witness["dim"]
    assert line.endswith(f"fill {witness['filled']} of a block of dimension "
                         f"{witness['dim']}")
    assert run_cli(capsys, *argv, str(tmp_path / "short.json"))[0] == 1
    short = json.loads((tmp_path / "short.json").read_text(encoding="utf-8"))
    assert short["summary"]["fail"] == 1
    assert len(short["records"]) == len(whole["records"]) == 4
    for rec, before in zip(short["records"], whole["records"]):
        if rec["params"] == {"i": 1, "a": 1}:
            assert rec["claim"] == "SPECTRUM-DELPQD" and rec["status"] == "fail"
            assert rec["witness"] == {"error": line[len("error: "):],
                                      "witness": witness}
        else:
            assert rec == before and rec["status"] == "pass", rec["params"]


def test_character_typical(capsys):
    code, out, _ = run_cli(capsys, "character", "typical", "2,1,-1|1")
    assert code == 0
    blob = json.loads(out)
    assert blob["convention"] == "unsigned"
    assert blob["canonical"]


def test_character_rejects_wrong_family(capsys):
    code, _, err = run_cli(capsys, "character", "typical", "1,0,0|0")
    assert code == 2 and "atypical" in err


@pytest.mark.parametrize("formula,label", [
    ("auto", "1,2,3|0"), ("typical", "1,2,3|0"), ("typical", "0,1,0|-1"),
    ("kac", "1,2,3|0"), ("atypical", "0,1,0|0")])
def test_character_auto_rejects_non_dominant_label(capsys, formula, label):
    code, out, err = run_cli(capsys, "character", formula, label)
    assert code == 2 and out == "" and "not dominant" in err


def test_character_schur(capsys):
    code, out, _ = run_cli(capsys, "character", "schur", "2,1")
    assert code == 0
    assert json.loads(out)["convention"] == "signed"


# ---------------------------------------------------------------------------
# export


def test_export_matrix_cli(capsys):
    code, out, _ = run_cli(capsys, "export", "matrix", "d", "1,1")
    assert code == 0
    mat = from_triples(json.loads(out))
    assert mat == KoszulContext(SuperSpace(3, 1)).pair_d(1, 1)


@pytest.mark.parametrize("argv", [
    "export basis sym 2 0,1",
    "export basis alt 2 0,0",
    "export matrix d 1,1 0,1",
    "verify --m 0",
    "verify --n 0",
])
def test_an_empty_alphabet_is_refused_alike(capsys, argv):
    # export and verify share one alphabet check
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err == "error: alphabet sizes must be at least 1\n"


def test_export_basis_cli(capsys, tmp_path):
    out_file = tmp_path / "basis.json"
    code, _, _ = run_cli(
        capsys, "export", "basis", "alt", "2", "3,1", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["dim"] == 7


# ---------------------------------------------------------------------------
# output files


OUTPUT_REQUESTS = {
    "verify": ["verify", "--checks", "identities", "--max-k", "1", "--max-l",
               "1", "--max-p", "1", "--max-r", "1", "--json"],
    "construct": ["construct", "Y", "1", "1", "--json"],
    "spectrum": ["spectrum", "delPQd", "1", "1", "--json"],
    "character": ["character", "typical", "2,1,0|-1", "--json"],
    "export-matrix": ["export", "matrix", "d", "3,3", "--out"],
    "export-basis": ["export", "basis", "alt", "2", "--out"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_REQUESTS))
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_an_unwritable_output_is_a_configuration_error(monkeypatch, capsys,
                                                       tmp_path, command,
                                                       where):
    # a missing parent directory, or a path that is a directory: one error
    # line naming the path and exit 2, not a traceback; verify refuses the
    # path before it runs the plan
    def refuse(plan):
        raise AssertionError("the plan ran")

    monkeypatch.setattr(harness, "run", refuse)
    path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, *OUTPUT_REQUESTS[command], str(path))
    assert code == 2
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "missing").exists()

