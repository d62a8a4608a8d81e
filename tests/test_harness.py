"""Plan validation, report determinism, exports, and the per-command report
builders."""

import hashlib
import json

import pytest

from oracles import from_triples
from superkoszul import characters, harness
from superkoszul.characters import LaurentPoly
from superkoszul.glrep import CONSTRUCTIONS
from superkoszul.harness import (
    CLAIMS,
    FAMILIES,
    MODULE_CELLS,
    SCHUR_GRID,
    PlanError,
    VerificationPlan,
    character_report,
    construct_report,
    export_basis,
    export_matrix,
    hook_to_label,
    record,
    run,
    run_group,
    spectrum_report,
    stable_body,
    store_report,
    verdict,
    check_module,
    _module_cell,
)
from superkoszul.glrep import Constructor
from superkoszul.koszul import KoszulContext, KoszulError, idle_field
from superkoszul.linalg import SparseMap
from superkoszul.superspace import SuperSpace


SMALL = dict(max_k=2, max_l=2, max_i=1, max_a=1, max_p=2, max_r=2)


# ---------------------------------------------------------------------------
# plan and record invariants


def test_plan_rejects_bad_bounds():
    with pytest.raises(PlanError):
        VerificationPlan(max_k=0).validate()
    with pytest.raises(PlanError):
        VerificationPlan(m=0).validate()
    with pytest.raises(PlanError):
        VerificationPlan(jobs=0).validate()


def test_plan_rejects_bad_checks():
    with pytest.raises(PlanError):
        VerificationPlan(checks=("identities", "nonsense")).validate()
    with pytest.raises(PlanError):
        VerificationPlan(checks=()).validate()


def test_plan_round_trips_through_dict():
    plan = VerificationPlan(checks=("identities",), jobs=2, **SMALL)
    assert VerificationPlan.from_dict(plan.as_dict()) == plan


def test_record_requires_registered_claim_and_witness():
    with pytest.raises(ValueError):
        record("NOT-A-CLAIM", {}, "pass")
    with pytest.raises(ValueError):
        record("H31", {}, "fail")
    r = record("H31", {}, "fail", witness={"bad": 1})
    assert r["statement"] == CLAIMS["H31"]


def test_verdict_keeps_the_witness_of_a_failure_only():
    ok = verdict("H31", {}, True, {"bad": 1}, dims={"dim": 1}, note="n")
    assert ok == record("H31", {}, "pass", dims={"dim": 1}, note="n")
    bad = verdict("H31", {}, False, {"bad": 1})
    assert bad["status"] == "fail" and bad["witness"] == {"bad": 1}
    with pytest.raises(ValueError):
        verdict("H31", {}, False, None)


def test_families_cover_the_constructions():
    assert set(FAMILIES) == set(CONSTRUCTIONS) - {"ilambda"}
    for claim, closed, _ in FAMILIES.values():
        assert claim in CLAIMS
        assert callable(getattr(characters, closed))


def test_one_family_table_drives_verify_and_construct(monkeypatch):
    claim, _, label = FAMILIES["mmp"]
    monkeypatch.setitem(FAMILIES, "mmp", (claim, "y_char", label))
    plan = VerificationPlan(checks=("constructions",), **SMALL)
    _, records, _, _ = run_group(plan.as_dict(), "constructions")
    mmp = [r for r in records if r["claim"] == "MMP-CHAR"]
    assert mmp and all(r["status"] == "fail" for r in mmp)
    assert all(not r["witness"]["closed_formula"]["equal"] for r in mmp)
    out = construct_report("mmp", (1, 2))
    assert not out["ok"]
    # verify and construct ran the same check on the same module
    rec, = [r for r in mmp if r["params"] == {"m": 1, "p": 2}]
    for leg in ("closed_formula", "v_formula"):
        assert rec["witness"][leg] == out["characters"][leg]


def test_signed_enumeration_is_unsigned_with_y_negated(monkeypatch):
    # the fact that lets a hook's V leg read the unsigned enumeration
    built = []

    def spy(con, name, params):
        out = check_module(con, name, params)
        built.append(out[0])
        return out

    monkeypatch.setattr(harness, "check_module", spy)
    for group in ("constructions", "characters"):
        run_group(VerificationPlan().as_dict(), group)
    # 8 ImD cells on the default plan, the family cells and the hooks
    assert len(built) == 8 + len(MODULE_CELLS) + len(SCHUR_GRID)
    for mod in built:
        assert (characters.supercharacter(mod, True)
                == characters.supercharacter(mod, False).sub_y_neg())


def test_module_cell_records_a_reducible_module_as_a_failure(monkeypatch):
    con = Constructor(KoszulContext(SuperSpace(3, 1)))
    reducible = con.image_module(4, 2)
    monkeypatch.setattr(con, "y_summand", lambda n, p: reducible)
    rec, checks, _ = _module_cell(con, "Y-CHAR", "y", {"n": 1, "p": 1},
                                  (1, 1), FAMILIES["y"][2](1, 1))
    derived = checks["highest_weight"]
    assert rec["status"] == "fail" and derived is None
    assert rec["witness"]["irreducible"] is False
    assert rec["witness"]["singular_dim"] == 2
    assert rec["witness"]["highest_weight"] is None


def test_hook_to_label():
    assert hook_to_label((2, 1)) == (2, 1, 0, 0)
    assert hook_to_label((3,)) == (3, 0, 0, 0)
    assert hook_to_label((1, 1, 1, 1)) == (1, 1, 1, -1)
    assert hook_to_label((2, 1, 1, 1, 1)) == (2, 1, 1, -2)


# ---------------------------------------------------------------------------
# runs and reports


@pytest.fixture(scope="module")
def small_report():
    plan = VerificationPlan(checks=("identities", "splittings"), **SMALL)
    return run(plan)


def test_small_run_passes(small_report):
    s = small_report.summary
    assert s["fail"] == 0 and s["findings"] == 0 and s["ok"]
    assert small_report.exit_code() == 0
    assert set(small_report.timings) == {"identities", "splittings"}


def test_records_sorted_and_self_described(small_report):
    keys = [(r["claim"], json.dumps(r["params"], sort_keys=True))
            for r in small_report.records]
    assert keys == sorted(keys)
    for r in small_report.records:
        assert r["statement"] == CLAIMS[r["claim"]]
        if r["status"] == "fail":
            assert r["witness"] is not None


def test_run_is_deterministic_and_parallel_safe():
    plan = VerificationPlan(checks=("identities", "characters"), **SMALL)
    one = stable_body(run(plan).to_json())
    two = stable_body(run(plan).to_json())
    assert one == two
    par = VerificationPlan(checks=("identities", "characters"), jobs=2, **SMALL)
    assert stable_body(run(par).to_json()) == one.replace('"jobs": 1', '"jobs": 2')


# sha256 of the default plan's stable_body, recorded from the report of
# commit ab10610; the body is meant to stay byte for byte the same
DEFAULT_BODY_SHA256 = (
    "6886378101b3550be0a7067d08ab8ed74b8804f480abd6e6409797895db250ad")


def test_default_report_body_is_pinned():
    rep = run(VerificationPlan())
    body = stable_body(rep.to_json())
    assert hashlib.sha256(body.encode()).hexdigest() == DEFAULT_BODY_SHA256
    assert (rep.summary["pass"], rep.summary["fail"], rep.summary["skip"],
            rep.summary["findings"]) == (449, 0, 117, 3)


# sha256 of the stable_body of verify --max-k 3 --max-l 3 --max-i 2 --max-a 2
# on four more alphabets, and its (pass, fail, skip, findings), recorded at
# commit ce62b56; a change that moves one of these records on purpose
# re-records its hash and lists the records in CHANGES.md
OTHER_ALPHABET_BODIES = {
    (2, 1): ("e2df39a76ecaeb3668cd061dfe2fb50f0d38df6daeba6f384e5dbacccbbcbfb4",
             (275, 0, 85, 0)),
    (2, 2): ("4b484c784ce0fe166ee0335d9b41aadd67b777eeae752300caf862c6c7fbfd32",
             (274, 0, 86, 0)),
    (1, 2): ("fa155c39cc0380c005a6bb0c28423e6ba8e10e4fdc144e9f407013eec140ed44",
             (275, 0, 85, 0)),
    (4, 1): ("aec6cf2d8f4808b4d35e7dae38d2667c5aed474def5251dbe09070953bbb7c4b",
             (277, 0, 83, 0)),
}


@pytest.mark.parametrize("m,n", sorted(OTHER_ALPHABET_BODIES))
def test_small_plan_bodies_off_3_1_are_pinned(m, n):
    rep = run(VerificationPlan(m=m, n=n, max_k=3, max_l=3, max_i=2, max_a=2))
    body = stable_body(rep.to_json())
    digest, counts = OTHER_ALPHABET_BODIES[(m, n)]
    assert hashlib.sha256(body.encode()).hexdigest() == digest
    assert (rep.summary["pass"], rep.summary["fail"], rep.summary["skip"],
            rep.summary["findings"]) == counts


def test_spectra_run_reports_stated_set_finding():
    plan = VerificationPlan(checks=("spectra",), max_i=1, max_a=1,
                            max_k=2, max_l=2)
    rep = run(plan)
    assert rep.summary["fail"] == 0
    assert rep.summary["findings"] == 1
    f = rep.findings[0]
    assert f["claim"] == "SPECTRUM-DELPQD"
    assert f["params"]["cells"] == [[1, 1]]
    assert rep.exit_code() == 1


def test_a_witnessed_error_fails_one_spectra_cell(monkeypatch):
    # the loop at (i, a) = (1, 1) raises its typed error: that cell is a
    # failed record with the message and the witness, and the other cells
    # and the finding's scan still run
    loop_spectrum = KoszulContext.loop_spectrum

    def broken(self, kind, params):
        if (kind, params) == ("delPQd", (1, 1)):
            raise KoszulError("a broken cell", witness={"at": (1, 1)})
        return loop_spectrum(self, kind, params)

    monkeypatch.setattr(KoszulContext, "loop_spectrum", broken)
    rep = run(VerificationPlan(checks=("spectra",), max_i=1, max_a=1,
                               max_k=1, max_l=1))
    (bad,) = [r for r in rep.records if r["status"] == "fail"]
    assert (bad["claim"], bad["params"]) == ("SPECTRUM-DELPQD",
                                             {"i": 1, "a": 1})
    assert bad["witness"] == {"error": "a broken cell",
                              "witness": {"at": [1, 1]}}
    assert rep.summary["pass"] == 3 and rep.summary["findings"] == 0
    assert rep.exit_code() == 1


def test_twin_alphabet_identities_and_exactness():
    plan = VerificationPlan(m=2, n=1, max_k=3, max_l=3, max_i=1, max_a=2,
                            max_p=2, max_r=2,
                            checks=("identities", "exactness"))
    rep = run(plan)
    assert rep.summary["ok"]
    # the one-line homology cell sits at offset m-n = 1, k = m = 2
    cells = {(r["params"]["offset"], r["params"]["k"]): r["status"]
             for r in rep.records if r["claim"] == "K-EXACTNESS"}
    assert cells[(1, 2)] == "pass"


def test_alphabet_specific_groups_skip_on_twin():
    plan = VerificationPlan(m=2, n=1, checks=("constructions", "characters"),
                            **SMALL)
    rep = run(plan)
    assert rep.summary["fail"] == 0
    assert all(r["status"] == "skip" for r in rep.records)


def test_report_schema_validates(small_report):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    schema = json.loads(
        files("superkoszul").joinpath("schemas/report.schema.json").read_text()
    )
    jsonschema.validate(small_report.to_json(), schema)


# ---------------------------------------------------------------------------
# single-command reports


def test_construct_report_y():
    out = construct_report("ysummand", (1, 1))
    assert out["ok"] and out["irreducible"]
    assert out["dim"] == 15
    assert out["highest_weight"] == [1, 0, 0, 1]
    assert out["characters"]["closed_formula"]["equal"]
    assert out["characters"]["v_formula"]["equal"]
    assert out["characters"]["v_formula"]["convention"] == "unsigned"


def test_construct_report_z1_uses_derived_label():
    out = construct_report("z1", (1,))
    assert out["ok"]
    assert out["highest_weight"] == [2, 1, -1, 1]
    assert out["characters"]["v_formula"]["label"] == [2, 1, -1, 1]


def test_construct_report_h31():
    out = construct_report("h31", ())
    assert out["ok"] and out["dim"] == 1
    assert out["highest_weight"] == [1, 1, 1, 1]


def test_construct_report_ilambda():
    out = construct_report("ilambda", (2, 1))
    assert out["ok"]
    assert out["highest_weight"] == [2, 1, 0, 0]
    assert out["characters"]["closed_formula"]["convention"] == "signed"


def test_construct_report_ilambda_checks_the_sign(monkeypatch):
    monkeypatch.setattr(characters, "ch_schur_super",
                        lambda shape: LaurentPoly.monomial((5, 0, 0, 0)))
    out = construct_report("ilambda", (2, 1))
    closed = out["characters"]["closed_formula"]
    assert closed["equal"] is False and closed["up_to_sign"] is False
    assert not out["ok"]


def test_construct_report_imd_small_k_skips_closed_form():
    out = construct_report("imd", (1, 1))
    assert out["characters"]["closed_formula"].get("skipped")
    assert out["ok"]  # irreducibility and the V-formula leg still hold


def test_spectrum_report_flags_stated_mismatch():
    ok_cell = spectrum_report("delPQd", (0, 1))
    assert ok_cell["ok"] and ok_cell["matches_stated"]
    bad_cell = spectrum_report("delPQd", (1, 1))
    assert bad_cell["ok"] and bad_cell["matches_stated"] is False
    assert bad_cell["derived"] == ["5/6", "4/3"]
    assert bad_cell["stated"] == ["2/3", "1"]
    transfer = spectrum_report("PdeldQ", (0, 1, 1))
    assert transfer["ok"] and transfer["matches_stated"]


# the spectrum requests of the benchmark's query pool
BENCH_SPECTRA = (("delPQd", (2, 1)), ("delPQd", (2, 2)),
                 ("PdeldQ", (1, 1, 2)), ("PdeldQ", (1, 2, 1)))


def _spectra_records():
    """The default plan's spectra group and the benchmark's spectrum
    requests."""
    return (run_group(VerificationPlan().as_dict(), "spectra")[1:3],
            [spectrum_report(kind, params) for kind, params in BENCH_SPECTRA])


def test_benchmark_spectra_never_reach_the_char_poly_fallback(monkeypatch):
    # every loop the default plan and the benchmark's spectrum requests run
    # is settled by its predicted eigenspaces, so the characteristic
    # polynomial and its root search are never timed there
    expected = _spectra_records()

    def refuse(self):
        raise RuntimeError("the char-poly fallback ran")

    monkeypatch.setattr(SparseMap, "rational_spectrum", refuse)
    monkeypatch.setattr(SparseMap, "char_poly", refuse)
    assert _spectra_records() == expected


def test_benchmark_spectra_build_no_lifted_operator_and_no_whole_loop(
        monkeypatch):
    # the loops apply their words' line-spot maps to the kept columns:
    # nothing composes a word, and no operator is built where the field it
    # leaves alone is not 0
    expected = _spectra_records()
    operator = KoszulContext.operator

    def refuse(self, word, spot):
        raise RuntimeError("a loop word was composed")

    def line_only(self, name, spot):
        if getattr(spot, idle_field(name)):
            raise RuntimeError(f"{name} built at the lifted spot {spot}")
        return operator(self, name, spot)

    monkeypatch.setattr(KoszulContext, "composed", refuse)
    monkeypatch.setattr(KoszulContext, "operator", line_only)
    assert _spectra_records() == expected


def test_character_report_formulas():
    typ = character_report("typical", (2, 1, -1, 1))
    kac = character_report("kac", (2, 1, -1, 1))
    assert typ["canonical"] == kac["canonical"] is not None
    sch = character_report("schur", (2, 1))
    assert sch["convention"] == "signed"
    auto = character_report("auto", (1, 0, 0, 0))
    assert auto["canonical"] is not None


# ---------------------------------------------------------------------------
# exports


def test_export_matrix_round_trip():
    out = export_matrix("d", (1, 1), (3, 1))
    mat = from_triples(out)
    fresh = KoszulContext(SuperSpace(3, 1)).pair_d(1, 1)
    assert mat == fresh
    # a repeated export must be bit-identical
    again = export_matrix("d", (1, 1), (3, 1))
    assert json.dumps(out, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_export_matrix_unknown_kind():
    with pytest.raises(KeyError):
        export_matrix("nope", (1, 1), (3, 1))


def test_export_basis_alt2():
    out = export_basis("alt", 2, (3, 1))
    assert out["dim"] == 7 and len(out["vectors"]) == 7
    for vec in out["vectors"]:
        assert set(vec) == {"label", "weight", "parity", "expansion"}


def test_store_report_writes_indented_sorted_json(tmp_path):
    path = tmp_path / "out.json"
    store_report({"b": [1, {"d": 2, "c": 3}], "a": "x"}, str(path))
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": "x",\n  "b": [\n    1,\n    {\n      "c": 3,\n'
        '      "d": 2\n    }\n  ]\n}\n'
    )


def test_a_pool_has_no_more_workers_than_groups(monkeypatch):
    # a process pool forks all its workers at once, so --jobs beyond the
    # number of check groups must not reach it; the report keeps the plan's
    # jobs as given.  A fake pool runs the groups in this process
    import concurrent.futures

    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    small = dict(max_k=1, max_l=1, max_i=1, max_a=1, max_p=1, max_r=1)
    checks = ("identities", "exactness")
    wide = run(VerificationPlan(checks=checks, jobs=10000, **small))
    assert seen == [2]
    assert wide.plan["jobs"] == 10000
    run(VerificationPlan(checks=checks + ("splittings",), jobs=2, **small))
    assert seen == [2, 2]
    one = run(VerificationPlan(checks=checks, jobs=1, **small))
    assert seen == [2, 2]
    assert (one.records, one.findings) == (wide.records, wide.findings)
