"""Verification grids, machine-readable reports, and JSON exports.

Every checked fact is registered under a stable claim id with a plain
mathematical statement, so reports stay meaningful on their own; `verdict`
turns a check result into its pass or fail record.  Checks are grouped into
independent units that can run in separate processes; report assembly is
single threaded and the record order is fixed by sorting, so two runs of the
same plan agree byte for byte outside the timing fields.

`FAMILIES` is the one declaration of each module family: its `Constructor`
method and parameter count, its claim, its closed character and its
highest-weight label; `build_module` builds a family by name from it.
`check_module` is the one check of a module: irreducibility, the closed
form and the V formula at the derived highest weight.  The constructions
and characters groups and the single-module `construct_report` all run it,
so `verify` and `construct` certify a module the same way.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

from . import characters as chars
from .glrep import Constructor, GLAction, check_equivariance
from .koszul import KoszulContext, Spot, op_applicable
from .linalg import WitnessedError
from .superspace import SuperSpace, power_basis, weight_label


class PlanError(ValueError):
    pass


CHECK_GROUPS = (
    "identities",
    "exactness",
    "commutativity",
    "equivariance",
    "spectra",
    "splittings",
    "constructions",
    "characters",
)

# Stable claim registry: id -> statement of the tested fact.  Statements are
# self-contained formulas, not citations, so they survive renumbering of any
# outside source.
CLAIMS = {
    "D-DEL-IDENTITY": (
        "k*l*(d del) + (k+1)*(l+1)*(del d) = (l-k-n+m) id on Lambda_k (x) S*_l"
    ),
    "P-Q-IDENTITY": (
        "r*(p+1)*(P Q) + p*(r+1)*(Q P) = (p+r) id on S_p (x) Lambda_r"
    ),
    "D-SQUARED": "d . d = 0 on every pair space",
    "P-SQUARED": "P . P = 0 on every transfer pair",
    "K-EXACTNESS": (
        "the offset-a insertion complex is exact, except offset a = m-n "
        "where the homology is one line at Lambda_m (x) S*_n"
    ),
    "DP-COMMUTE": "P then d equals d then P wherever both routes exist",
    "DELQ-COMMUTE": "Q then del equals del then Q wherever both routes exist",
    "EQUIVARIANCE": (
        "each of the four differentials commutes with all elementary "
        "generator actions on the triple spots"
    ),
    "SPECTRUM-DELPQD": (
        "the insertion-side loop del.P.Q.d at (i,a) is diagonalizable and "
        "invertible with eigenvalues (a+i+3-j)*j/((i+1)*(a+i+1)), j = 1..i+1"
    ),
    "SPECTRUM-PDELDQ": (
        "the transfer-side loop Q.d.del.P at (i,k,a), restricted to "
        "Ker(P (x) id), is diagonalizable and invertible with eigenvalues "
        "(a+k+2i+4-j)*j/((i+1)*(k+1)^2*(a+i+k+2)), j in {1..i+1} u {i+k+1}"
    ),
    "XDANH-SPLIT": (
        "Lambda_k (x) S*_l = Im d_(k-1,l-1) (+) Im(del.d) whenever "
        "k - l differs from m - n"
    ),
    "KERP-IMP": (
        "Ker(P (x) id) equals the image of the incoming P (x) id at every "
        "triple spot with an exterior letter"
    ),
    "DKERP-RESTRICT": "d carries Ker(P (x) id) into Ker(P (x) id)",
    "DEL-NOT-RESTRICT": (
        "del does not preserve Ker(P (x) id) at the splitting spots"
    ),
    "H31": (
        "the insertion complex at offset m-n has a one-dimensional homology "
        "of weight (1,1,1|1) and character x1x2x3/y"
    ),
    "IMD-SIMPLE": (
        "Im d_(k,l) is irreducible, and for k >= 2 its character is "
        "R y^(k-3) a(l,l,0) / (Pi (x1x2x3)^l)"
    ),
    "Y-CHAR": (
        "the complement summand Y(n,p) is irreducible with highest weight "
        "(n,0,-p+1|1) and the cyclic closed-form character"
    ),
    "Z1-CHAR": (
        "Z1(m) is irreducible with character "
        "R a(m+2,m+1,0) / (Pi y (x1x2x3)^(m+1))"
    ),
    "ZK-CHAR": (
        "the ladder summand Z(k,l,m) is irreducible with character "
        "R (x1x2x3)^(-m) y^(l-3) a(k+m,m,0) / Pi"
    ),
    "MMP-CHAR": (
        "M(m,p) is irreducible with highest weight (m,m,-p|0) and character "
        "R a(m+p,m+p,0) / (Pi (x1x2x3)^(p+1))"
    ),
    "MFINAL-CHAR": (
        "M(m,t,p) is irreducible with highest weight (m+t,m,-p+1|1) and "
        "character R (x1x2x3)^(-p) a(m+p+t-1,m+p-1,0) / (Pi y)"
    ),
    "KAC-TYPICAL-CONSISTENCY": (
        "the orbit-sum character L1/L0 sum sign(w) e^(w(lambda+rho)) equals "
        "the closed typical formula"
    ),
    "SCHUR-CONSISTENCY": (
        "the hook determinant of h_r(x1+x2+x3-y) equals the signed "
        "enumeration of the realized hook module, and y -> -y gives the "
        "unsigned irreducible character"
    ),
}

# typical dominant integrable labels with entries in [-3,3], fixed once
KAC_GRID = (
    (1, 1, -1, 0),
    (2, 1, -1, 1),
    (0, 0, 0, 3),
    (3, 2, 1, -3),
    (2, 0, -2, 2),
    (1, 0, 0, 2),
    (3, 1, -2, 0),
    (0, -1, -3, -1),
    (2, 2, 2, -2),
    (3, 0, -3, 2),
)

SCHUR_GRID = (
    (2,),
    (3,),
    (1, 1),
    (1, 1, 1),
    (2, 1),
    (1, 1, 1, 1),
    (2, 1, 1),
    (3, 1),
)


def hook_to_label(shape):
    """Highest-weight label of the hook module: pad to three rows, each
    further row lowers the fourth coordinate by one."""
    shape = tuple(shape) + (0, 0, 0)
    return (shape[0], shape[1], shape[2], -max(len(tuple(p for p in shape if p)) - 3, 0))


_Y_FAMILY = ("y_summand", 2, "Y-CHAR", "y_char", lambda n, p: (n, 0, 1 - p, 1))

# lower-case construction name -> (Constructor method, parameter count, claim,
# name of the closed character in `characters`, highest-weight label as a
# function of the construction parameters).  A parameter count of None hands
# the whole parameter tuple over as one shape.  The method and the character
# are named rather than held, so they are looked up when a module is built or
# checked.  Z1's label is the constructed one; the stated label and the
# stated general Z character differ and are reported as findings.
FAMILIES = {
    "h31": ("h31", 0, "H31", "h31_char", lambda: (1, 1, 1, 1)),
    "imd": ("image_module", 2, "IMD-SIMPLE", "image_char", None),
    "y": _Y_FAMILY,
    "ysummand": _Y_FAMILY,
    "z1": ("z1", 1, "Z1-CHAR", "z1_char", lambda m: (2, 1, -m, 1)),
    "zk": ("zk", 3, "ZK-CHAR", "zk_char",
           lambda k, l, m: (k + 1, 1, 1 - m, 3 - l)),
    "mmp": ("mmp", 2, "MMP-CHAR", "mmp_char", lambda m, p: (m, m, -p, 0)),
    "mfinal": ("mfinal", 3, "MFINAL-CHAR", "mfinal_char",
               lambda m, t, p: (m + t, m, 1 - p, 1)),
    "ilambda": ("ilambda", None, "SCHUR-CONSISTENCY", None, hook_to_label),
}

# (construction, parameters) of each module the constructions group
# certifies; the ImD cells follow the plan's bounds instead
MODULE_CELLS = (
    ("h31", {}),
    *(("y", {"n": n, "p": p}) for n in (1, 2) for p in (1, 2)),
    *(("z1", {"m": m}) for m in (1, 2)),
    *(("zk", {"k": k, "l": l, "m": m})
      for k, l, m in ((1, 2, 1), (1, 2, 2), (2, 2, 2))),
    *(("mmp", {"m": m, "p": p}) for m in (1, 2) for p in (1, 2)),
    *(("mfinal", {"m": m, "t": t, "p": p})
      for m in (1, 2) for t in (1, 2) for p in (1, 2)),
)


# ---------------------------------------------------------------------------
# plan and report containers


# The plan's fields with their defaults, in report order.  The verify flags
# of the CLI are read off this table.
PLAN_DEFAULTS = {
    "m": 3,
    "n": 1,
    "max_k": 4,
    "max_l": 4,
    "max_i": 3,
    "max_a": 3,
    "max_p": 3,
    "max_r": 3,
    "dim_cap": 3000,
    "checks": CHECK_GROUPS,
    "jobs": 1,
}


def check_alphabet(m, n):
    """PlanError unless both alphabet sizes are at least 1: the one check
    of an alphabet, for a plan and for an export."""
    if m < 1 or n < 1:
        raise PlanError("alphabet sizes must be at least 1")


class VerificationPlan:
    """A verify run: the fields of PLAN_DEFAULTS, each given by keyword or
    left at its default.  Two plans are equal when every field is."""

    __slots__ = tuple(PLAN_DEFAULTS)

    def __init__(self, **fields):
        unknown = sorted(set(fields) - set(PLAN_DEFAULTS))
        if unknown:
            raise TypeError(f"unknown plan fields: {unknown}")
        for name, default in PLAN_DEFAULTS.items():
            setattr(self, name, fields.get(name, default))

    def __eq__(self, other):
        if type(other) is not VerificationPlan:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in PLAN_DEFAULTS)

    def __repr__(self):
        return f"VerificationPlan({self.as_dict()})"

    def validate(self):
        bounds = (self.max_k, self.max_l, self.max_i, self.max_a,
                  self.max_p, self.max_r)
        check_alphabet(self.m, self.n)
        if any(b < 1 for b in bounds):
            raise PlanError("index bounds must be at least 1")
        if self.dim_cap < 1 or self.jobs < 1:
            raise PlanError("dim_cap and jobs must be at least 1")
        bad = [c for c in self.checks if c not in CHECK_GROUPS]
        if bad:
            raise PlanError(f"unknown checks: {bad}")
        if not self.checks:
            raise PlanError("at least one check must be selected")
        return self

    def as_dict(self):
        return {**{f: getattr(self, f) for f in PLAN_DEFAULTS},
                "checks": list(self.checks)}

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["checks"] = tuple(d.get("checks", CHECK_GROUPS))
        return cls(**d)


def record(claim, params, status, witness=None, dims=None, note=""):
    if claim not in CLAIMS:
        raise ValueError(f"unregistered claim {claim!r}")
    if status not in ("pass", "fail", "skip"):
        raise ValueError(f"bad status {status!r}")
    if status == "fail" and witness is None:
        raise ValueError("failures must carry a witness")
    return {
        "claim": claim,
        "statement": CLAIMS[claim],
        "params": params,
        "status": status,
        "witness": witness,
        "dims": dims or {},
        "note": note,
    }


def verdict(claim, params, ok, witness, dims=None, note=""):
    """The pass or fail record of a check; the witness is kept on a failure
    only."""
    return record(claim, params, "pass" if ok else "fail",
                  witness=None if ok else witness, dims=dims, note=note)


def finding(claim, params, description, stated, derived):
    """A verified discrepancy between a stated value and the derived one."""
    return {
        "claim": claim,
        "params": params,
        "description": description,
        "stated": stated,
        "derived": derived,
    }


class Report:
    """A verify run's report: the plan as a dict, the records and findings,
    and, once finished, the summary; timings and meta are the channels that
    vary between runs."""

    __slots__ = ("plan", "records", "findings", "summary", "timings", "meta")

    def __init__(self, plan, records, findings, summary=None, timings=None,
                 meta=None):
        self.plan = plan
        self.records = records
        self.findings = findings
        self.summary = {} if summary is None else summary
        self.timings = {} if timings is None else timings
        self.meta = {} if meta is None else meta

    def finish(self):
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            counts[r["status"]] += 1
        self.records.sort(key=_record_key)
        self.findings.sort(key=lambda f: (f["claim"], _param_key(f["params"])))
        self.summary = {
            **counts,
            "findings": len(self.findings),
            "ok": counts["fail"] == 0 and not self.findings,
        }
        return self

    def exit_code(self):
        return 0 if self.summary.get("ok") else 1

    def to_json(self):
        return {f: getattr(self, f) for f in self.__slots__}


def _param_key(params):
    return json.dumps(params, sort_keys=True)


def _record_key(r):
    return (r["claim"], _param_key(r["params"]))


def stable_body(report_json):
    """The deterministic part of a report: everything but timings and meta."""
    body = {k: v for k, v in report_json.items() if k not in ("timings", "meta")}
    return json.dumps(body, sort_keys=True, indent=1)


def _context(plan):
    return KoszulContext(SuperSpace(plan.m, plan.n))


# ---------------------------------------------------------------------------
# check groups


def _frac(x):
    f = Fraction(x)
    return str(f)


def _spectrum_json(rep):
    return {
        "eigenvalues": [[_frac(v), m] for v, m in rep.eigenvalues],
        "diagonalizable": rep.diagonalizable,
        "invertible": rep.invertible,
        "matches_derived": rep.matches_derived,
        "matches_stated": rep.matches_stated,
        "dim": rep.dim,
    }


def _sorted_fracs(vals):
    return [_frac(v) for v in sorted(vals)]


def _check_identities(plan):
    ctx = _context(plan)
    records = []
    for k in range(plan.max_k + 1):
        for l in range(plan.max_l + 1):
            r = ctx.d_del_identity(k, l)
            records.append(verdict(
                "D-DEL-IDENTITY", {"k": k, "l": l}, r["ok"],
                {"residual_nnz": r["residual_nnz"]},
                dims={"dim": r["dim"]}, note=f"scalar {r['scalar']}"))
            records.append(verdict(
                "D-SQUARED", {"k": k, "l": l}, ctx.d_squared_is_zero(k, l),
                {"nonzero": True}))
    for p in range(plan.max_p + plan.max_r + 1):
        for r_ in range(plan.max_p + plan.max_r + 1 - p):
            rr = ctx.p_q_identity(p, r_)
            records.append(verdict(
                "P-Q-IDENTITY", {"p": p, "r": r_}, rr["ok"],
                {"residual_nnz": rr["residual_nnz"]},
                dims={"dim": rr["dim"]}, note=f"scalar {rr['scalar']}"))
            if p >= 2:
                records.append(verdict(
                    "P-SQUARED", {"p": p, "r": r_},
                    ctx.p_squared_is_zero(p, r_), {"nonzero": True}))
    return records, []


def _check_exactness(plan):
    ctx = _context(plan)
    records = []
    special = plan.m - plan.n
    for a in range(plan.max_a + 1):
        for k in range(a, plan.max_k + 1):
            h = ctx.k_homology_dim(a, k)
            expected = 1 if (a == special and k == plan.m) else 0
            records.append(verdict(
                "K-EXACTNESS", {"offset": a, "k": k}, h == expected,
                {"homology_dim": h, "expected": expected},
                dims={"dim": ctx.pair_space(k, k - a).dim}))
    return records, []


def _spot_grid(si, sa, sd):
    for s in range(si + 1):
        for a in range(sa + 1):
            for d in range(sd + 1):
                yield Spot(s, a, d)


def _check_commutativity(plan):
    ctx = _context(plan)
    records = []
    for spot in _spot_grid(plan.max_i, plan.max_k, plan.max_l):
        for which, claim in (("dP", "DP-COMMUTE"), ("delQ", "DELQ-COMMUTE")):
            params = {"spot": list((spot.sym, spot.alt, spot.dual))}
            r = ctx.commute_check(which, spot)
            if r is None:
                records.append(record(
                    claim, params, "skip", note="a route is undefined here"))
                continue
            records.append(verdict(
                claim, params, r["ok"],
                {"failing_letter_pairs": r["failing_letter_pairs"]},
                dims={"dim": r["dim"]}))
    return records, []


def _check_equivariance(plan):
    ctx = _context(plan)
    act = GLAction(ctx.space)
    records = []
    grid = _spot_grid(min(plan.max_i, 2), min(plan.max_k, 2), min(plan.max_l, 2))
    for spot in grid:
        for name in ("d", "del", "P", "Q"):
            params = {"op": name,
                      "spot": list((spot.sym, spot.alt, spot.dual))}
            if not op_applicable(name, spot):
                records.append(record(
                    "EQUIVARIANCE", params, "skip", note="op undefined here"))
                continue
            r = check_equivariance(ctx, act, name, spot)
            records.append(verdict(
                "EQUIVARIANCE", params, r["ok"],
                {"failing_generators": [list(g) for g in r["failing_generators"]]},
                dims={"generators": r["generators_checked"]}))
    return records, []


def _loop_spectrum(ctx, kind, loop_params, records, claim, params):
    """The loop's SpectrumReport; None when a check inside it raises its
    typed error, which is then appended to records as the cell's failed
    record, with the error's message and witness (made JSON-safe as the
    CLI prints it), so the other cells still run."""
    try:
        return ctx.loop_spectrum(kind, loop_params)
    except WitnessedError as e:
        records.append(record(claim, params, "fail", witness={
            "error": str(e),
            "witness": json.loads(json.dumps(e.witness, default=str))}))
        return None


def _check_spectra(plan):
    if (plan.m, plan.n) != (3, 1):
        return [record(
            "SPECTRUM-DELPQD", {"m": plan.m, "n": plan.n}, "skip",
            note="no eigenvalue prediction for this alphabet")], []
    ctx = _context(plan)
    records = []
    findings = []
    mismatch_cells = []
    example = None
    for i in range(plan.max_i + 1):
        for a in range(1, plan.max_a + 1):
            rep = _loop_spectrum(ctx, "delPQd", (i, a), records,
                                 "SPECTRUM-DELPQD", {"i": i, "a": a})
            if rep is None:
                continue
            ok = rep.diagonalizable and rep.invertible and rep.matches_derived
            records.append(verdict(
                "SPECTRUM-DELPQD", {"i": i, "a": a}, ok, _spectrum_json(rep),
                dims={"dim": rep.dim},
                note="" if rep.matches_stated else "stated set differs; see findings",
            ))
            if ok and not rep.matches_stated:
                mismatch_cells.append([i, a])
                if example is None:
                    example = (rep, i, a)
    if mismatch_cells:
        rep, i, a = example
        findings.append(finding(
            "SPECTRUM-DELPQD", {"cells": mismatch_cells},
            "the stated eigenvalue set disagrees with the spectrum forced by "
            "the operator identities at every cell with i >= 1; the derived "
            "numerator is a+2i+3-j where the stated one reads a+i+3-j; "
            f"example at (i,a)=({i},{a})",
            stated=_sorted_fracs(rep.stated),
            derived=_sorted_fracs(rep.derived),
        ))
    for i in range(min(plan.max_i, 2) + 1):
        for k in range(1, min(plan.max_k, 2) + 1):
            for a in range(1, min(plan.max_a, 2) + 1):
                params = {"i": i, "k": k, "a": a}
                spot = ctx.loop_setup("PdeldQ", (i, k, a))[1]
                if ctx.spot_space(spot).dim > plan.dim_cap:
                    records.append(record(
                        "SPECTRUM-PDELDQ", params, "skip",
                        note="dimension cap exceeded"))
                    continue
                rep = _loop_spectrum(ctx, "PdeldQ", (i, k, a), records,
                                     "SPECTRUM-PDELDQ", params)
                if rep is None:
                    continue
                ok = (rep.diagonalizable and rep.invertible
                      and rep.matches_stated)
                records.append(verdict(
                    "SPECTRUM-PDELDQ", params, ok, _spectrum_json(rep),
                    dims={"dim": rep.dim}))
    return records, findings


def _check_splittings(plan):
    ctx = _context(plan)
    records = []
    offset = plan.m - plan.n
    for k in range(plan.max_k + 1):
        for l in range(plan.max_l + 1):
            params = {"k": k, "l": l}
            if k - l == offset:
                records.append(record(
                    "XDANH-SPLIT", params, "skip",
                    note="splitting degenerates on this line"))
                continue
            r = ctx.xdanh_check(k, l)
            records.append(verdict(
                "XDANH-SPLIT", params, r["ok"],
                {k_: r[k_] for k_ in
                 ("dim", "rank_in", "rank_out", "rank_proj", "rank_sum")},
                dims={"dim": r["dim"]}))
    cap = 2
    for spot in _spot_grid(cap, cap, cap):
        params = {"spot": list((spot.sym, spot.alt, spot.dual))}
        if spot.alt >= 1:
            r = ctx.kerp_is_incoming_image(spot)
            records.append(verdict(
                "KERP-IMP", params, r["ok"],
                {"ker_dim": r["ker_dim"], "im_dim": r["im_dim"]}))
        r = ctx.d_restricts_to_kerp(spot)
        records.append(verdict(
            "DKERP-RESTRICT", params, r["ok"],
            {"escaping_vector": str(r["witness"])}))
        if spot.sym >= 1 and spot.alt >= 1 and spot.dual >= 1:
            if ctx.kerp_space(spot).dim == 0:
                records.append(record(
                    "DEL-NOT-RESTRICT", params, "skip", note="kernel trivial"))
                continue
            r = ctx.del_restricts_to_kerp(spot)
            records.append(verdict(
                "DEL-NOT-RESTRICT", params, not r["ok"], {"restricted": True}))
    return records, []


def build_module(con, name, params):
    """The named module, built by its family's `Constructor` method, which is
    looked up on con when called; ValueError on an unknown name or a wrong
    parameter count."""
    try:
        method, arity = FAMILIES[name.lower()][:2]
    except KeyError:
        raise ValueError(f"unknown construction {name!r}") from None
    if arity is None:
        return getattr(con, method)(params)
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameters, got {len(params)}")
    return getattr(con, method)(*params)


def check_module(con, name, params):
    """Build a named module and check it: it is irreducible, its enumeration
    equals its closed form, and its unsigned enumeration equals the V formula
    at the highest weight read off its one singular line.

    The closed form of a family is its closed character from `FAMILIES`,
    looked up in `characters` when called, against the unsigned enumeration;
    ImD with k < 2 or on the degenerate line k - l = m - n has none.  The
    closed form of a hook, which has no closed character, is the hook
    determinant of h_r(x1+x2+x3-y), against the signed enumeration; the
    weight-(1,1,1,-1) line (H31) has none.  `verify` and `construct` both
    check a module here.

    Returns the module, the checks and the unsigned enumeration.
    """
    mod = build_module(con, name, params)
    irr, info = mod.is_irreducible()
    derived = None
    if info["singular_dim"] == 1:
        derived = list(weight_label(info["singular_weights"][0],
                                    mod.space.m, mod.space.n))
    unsigned = chars.supercharacter(mod, signed=False)
    enum = chars.CharFraction(unsigned)
    key = name.lower()
    _, _, claim, closed_name, _ = FAMILIES[key]
    closed = None
    if key == "imd" and params[0] < 2:
        closed = {"claim": claim, "skipped": "closed form needs k >= 2"}
    elif key == "imd" and params[0] - params[1] == mod.space.m - mod.space.n:
        closed = {"claim": claim,
                  "skipped": "image coincides with the degenerate line"}
    elif closed_name is not None:
        closed = {"claim": claim, "convention": "unsigned",
                  **enum.compare(getattr(chars, closed_name)(*params))}
    elif tuple(params) != (1, 1, 1, -1):
        jt = chars.ch_schur_super(params)
        signed = chars.supercharacter(mod, signed=True)
        equal = jt == signed
        closed = {"claim": claim, "convention": "signed",
                  "equal": equal, "up_to_sign": equal or jt == -signed}
    if derived is None:
        v_leg = {"label": None, "error": "no highest weight: singular space "
                 f"has dimension {info['singular_dim']}"}
    else:
        try:
            v_leg = {"label": derived, "convention": "unsigned",
                     **enum.compare(chars.ch_v(tuple(derived)))}
        except chars.CharacterError as e:
            v_leg = {"label": derived, "error": str(e)}
    ok = irr and v_leg.get("equal", False) and (
        closed is None or "skipped" in closed or closed["equal"])
    checks = {
        "irreducible": irr,
        "singular_dim": info["singular_dim"],
        "highest_weight": derived,
        "closed_formula": closed,
        "v_formula": v_leg,
        "ok": ok,
    }
    return mod, checks, unsigned


def _module_cell(con, claim, name, params, args, stated=None, note=""):
    """The record of one module that `verify` certifies: `check_module`
    passes and, where a label is stated, the derived highest weight is that
    label.

    Returns the record, the checks and the unsigned enumeration.
    """
    mod, checks, unsigned = check_module(con, name, args)
    ok = checks["ok"] and (
        stated is None or checks["highest_weight"] == list(stated))
    rec = verdict(claim, params, ok, checks, dims={"dim": mod.dim}, note=note)
    return rec, checks, unsigned


def _check_constructions(plan):
    if (plan.m, plan.n) != (3, 1):
        return [record(
            "H31", {"m": plan.m, "n": plan.n}, "skip",
            note="module families are specific to the (3|1) alphabet")], []
    ctx = _context(plan)
    con = Constructor(ctx)
    records = []
    findings = []

    for k in range(2, plan.max_k + 1):
        for l in range(2, plan.max_l + 1):
            params = {"k": k, "l": l}
            if k - l == plan.m - plan.n:
                records.append(record(
                    "IMD-SIMPLE", params, "skip",
                    note="image coincides with the degenerate line"))
                continue
            if ctx.pair_space(k + 1, l + 1).dim > plan.dim_cap:
                records.append(record(
                    "IMD-SIMPLE", params, "skip",
                    note="dimension cap exceeded"))
                continue
            rec, _, _ = _module_cell(con, "IMD-SIMPLE", "imd", params, (k, l))
            records.append(rec)

    z1_cells = []
    zk_cells = []
    for name, params in MODULE_CELLS:
        _, _, claim, _, label_of = FAMILIES[name]
        args = tuple(params.values())
        note = "stated label differs; see findings" if name == "z1" else ""
        rec, checks, unsigned = _module_cell(
            con, claim, name, dict(params), args, label_of(*args), note)
        records.append(rec)
        derived = checks["highest_weight"]
        if name == "z1":
            stated = [2, 1, 1 - params["m"], 1]
            if derived != stated:
                z1_cells.append([params["m"], stated, derived])
        elif name == "zk":
            enum = chars.CharFraction(unsigned)
            if not enum.compare(chars.zk_char_stated(*args))["equal"]:
                zk_cells.append(list(args))
    if z1_cells:
        findings.append(finding(
            "Z1-CHAR", {"cells": [c[0] for c in z1_cells]},
            "the stated isomorphism label sits one above the constructed "
            "highest weight in the third coordinate; the closed character "
            "formula itself matches the construction and the V(2,1,-m|1) "
            "typical formula",
            stated=[c[1] for c in z1_cells],
            derived=[c[2] for c in z1_cells],
        ))
    if zk_cells:
        findings.append(finding(
            "ZK-CHAR", {"cells": zk_cells},
            "the stated general character carries a(k+m,m-1,0) where the "
            "constructed summands force a(k+m,m,0); the corrected column "
            "matches every cell and specializes to the Z1 display",
            stated="second determinant column exponent m-1",
            derived="second determinant column exponent m",
        ))
    return records, findings


def _check_characters(plan):
    if (plan.m, plan.n) != (3, 1):
        return [record(
            "KAC-TYPICAL-CONSISTENCY", {"m": plan.m, "n": plan.n}, "skip",
            note="character ring is specific to the (3|1) alphabet")], []
    records = []
    for lab in KAC_GRID:
        cmp = chars.kac_sum(lab).compare(chars.ch_typical(lab))
        records.append(verdict(
            "KAC-TYPICAL-CONSISTENCY", {"label": list(lab)}, cmp["equal"], cmp))
    ctx = _context(plan)
    con = Constructor(ctx)
    _, _, claim, _, label_of = FAMILIES["ilambda"]
    for shape in SCHUR_GRID:
        rec, _, _ = _module_cell(con, claim, "ilambda", {"shape": list(shape)},
                                 shape, label_of(shape))
        records.append(rec)
    return records, []


_GROUP_FNS = {
    "identities": _check_identities,
    "exactness": _check_exactness,
    "commutativity": _check_commutativity,
    "equivariance": _check_equivariance,
    "spectra": _check_spectra,
    "splittings": _check_splittings,
    "constructions": _check_constructions,
    "characters": _check_characters,
}


def run_group(plan_dict, group):
    """One check group in isolation; the entry point workers execute."""
    plan = VerificationPlan.from_dict(plan_dict).validate()
    t0 = time.perf_counter()
    records, findings = _GROUP_FNS[group](plan)
    return group, records, findings, time.perf_counter() - t0


def run(plan):
    """Execute the plan and assemble the deterministic report."""
    plan.validate()
    plan_dict = plan.as_dict()
    results = []
    if plan.jobs > 1 and len(plan.checks) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(plan.jobs, len(plan.checks))  # forked at once
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futs = [pool.submit(run_group, plan_dict, g)
                        for g in plan.checks]
                results = [f.result() for f in futs]
        except OSError:
            results = []  # pools unavailable; fall back to one process
    if not results:
        results = [run_group(plan_dict, g) for g in plan.checks]
    records, findings, timings = [], [], {}
    for group, recs, finds, elapsed in results:
        records.extend(recs)
        findings.extend(finds)
        timings[group] = round(elapsed, 6)
    from datetime import datetime, timezone  # only a report stamps the time

    rep = Report(
        plan=plan_dict,
        records=records,
        findings=findings,
        timings=timings,
        meta={
            "created": datetime.now(timezone.utc).isoformat(),
            "alphabet": f"{plan.m}|{plan.n}",
        },
    )
    return rep.finish()


# ---------------------------------------------------------------------------
# single-module reports for the construct command


def construct_report(name, params):
    """Build a named module and report its weights, its enumerated
    characters and the checks of `check_module`."""
    con = Constructor(KoszulContext(SuperSpace(3, 1)))
    mod, checks, unsigned = check_module(con, name, params)
    characters = {
        "enumerated_unsigned": unsigned.canonical(),
        "enumerated_signed": chars.supercharacter(mod, True).canonical(),
    }
    for leg in ("closed_formula", "v_formula"):
        if checks[leg] is not None:
            characters[leg] = checks[leg]
    return {
        "name": mod.name,
        "params": list(params),
        "dim": mod.dim,
        "highest_weight": checks["highest_weight"],
        "irreducible": checks["irreducible"],
        "singular_dim": checks["singular_dim"],
        "weights": sorted(
            ([list(w), c] for w, c in mod.weight_multiset().items()),
        ),
        "characters": characters,
        "ok": checks["ok"],
    }


def spectrum_report(kind, params):
    ctx = KoszulContext(SuperSpace(3, 1))
    rep = ctx.loop_spectrum(kind, tuple(params))
    out = {
        "kind": kind,
        "params": list(params),
        **_spectrum_json(rep),
        "derived": _sorted_fracs(rep.derived) if rep.derived else None,
        "stated": _sorted_fracs(rep.stated) if rep.stated else None,
    }
    out["ok"] = bool(rep.diagonalizable and rep.invertible
                     and rep.matches_derived)
    return out


def character_report(formula, label):
    if formula == "schur":
        poly = chars.ch_schur_super(tuple(label))
        return {
            "formula": formula, "label": list(label),
            "convention": "signed",
            "canonical": poly.canonical(), "terms": poly.to_json(),
        }
    label = tuple(label)
    if formula == "typical":
        frac = chars.ch_typical(label)
    elif formula == "atypical":
        frac = chars.ch_atypical(label)
    elif formula == "kac":
        frac = chars.kac_sum(label)
    elif formula == "auto":
        frac = chars.ch_v(label)
    else:
        raise ValueError(f"unknown formula {formula!r}")
    out = {
        "formula": formula,
        "label": list(label),
        "convention": "unsigned",
        "num": frac.num.to_json(),
        "den": frac.den.to_json(),
    }
    try:
        out["canonical"] = frac.to_poly().canonical()
    except chars.CharacterError:
        out["canonical"] = None
    return out


# ---------------------------------------------------------------------------
# exports


def _alphabet(alphabet):
    if len(alphabet) != 2:
        raise ValueError(f"an alphabet is two sizes m,n, got {alphabet!r}")
    check_alphabet(*alphabet)
    return alphabet


def export_matrix(which, pair, alphabet):
    if len(pair) != 2:
        raise ValueError(f"matrix export needs a degree pair, got {pair!r}")
    m, n = _alphabet(alphabet)
    ctx = KoszulContext(SuperSpace(m, n))
    fns = {"d": ctx.pair_d, "del": ctx.pair_del,
           "P": ctx.pair_p, "Q": ctx.pair_q}
    if which not in fns:
        raise KeyError(f"unknown matrix {which!r}")
    mat = fns[which](*pair)
    return {
        "key": f"matrix/{which}/{m},{n}/{pair[0]},{pair[1]}",
        **mat.to_triples(),
    }


def export_basis(kind, degree, alphabet, dual=False):
    if kind not in ("sym", "alt"):
        raise KeyError(f"unknown basis kind {kind!r}")
    m, n = _alphabet(alphabet)
    basis = power_basis(SuperSpace(m, n), kind, degree, dual)
    vectors = []
    for idx in range(basis.dim):
        vectors.append({
            "label": list(basis.multisets[idx]),
            "weight": list(basis.weights[idx]),
            "parity": basis.parities[idx],
            "expansion": [
                [list(word), _frac(c)] for word, c in basis.expansion(idx)
            ],
        })
    return {
        "key": f"basis/{kind}/{m},{n}/{degree}/{int(bool(dual))}",
        "kind": kind, "degree": degree, "dual": bool(dual),
        "m": m, "n": n, "dim": basis.dim,
        "vectors": vectors,
    }


def store_report(obj, path=None):
    """Write a JSON document to a file, or to stdout when there is no path:
    two-space indent, sorted keys, and a trailing newline.  The document is
    written as it is encoded, never held as one string; stdout is looked up
    when called."""
    out = open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)
    with out as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
