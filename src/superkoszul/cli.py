"""Command line front end: verification runs, module construction, loop
spectra, character formulas, and matrix and basis exports.

Exit codes: 0 everything checked out, 1 at least one failed check or
recorded finding, 2 bad configuration or arguments, or an output file that
cannot be written.  A check that raises its typed error (a WitnessedError)
is a failed check: its message and its witness, as JSON, go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .characters import CharacterError
from .harness import PlanError, VerificationPlan
from .linalg import WitnessedError


def parse_label(text):
    """Weight labels like "2,1,0|-1"; a plain comma list also works."""
    text = text.strip()
    if "|" in text:
        head, _, tail = text.partition("|")
        parts = head.split(",") + [tail]
    else:
        parts = text.split(",")
    try:
        lab = tuple(int(p.strip()) for p in parts)
    except ValueError as e:
        raise ValueError(f"bad label {text!r}: {e}") from None
    if len(lab) != 4:
        raise ValueError(f"label needs four entries, got {text!r}")
    return lab


def parse_ints(text):
    return tuple(int(p.strip()) for p in text.split(",") if p.strip())


def _emit(obj, out_path=None):
    harness.store_report(obj, out_path)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="superkoszul",
        description="exact checks for the double complex on a super vector "
                    "space and its module constructions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification plan")
    for name, default in harness.PLAN_DEFAULTS.items():
        if name == "checks":
            v.add_argument("--checks", default=",".join(default),
                           help="comma separated subset of: "
                                + ", ".join(harness.CHECK_GROUPS))
        else:
            v.add_argument("--" + name.replace("_", "-"), type=int,
                           default=default)
    v.add_argument("--json", dest="json_out", default=None,
                   help="write the full report to this file")

    c = sub.add_parser("construct", help="build a named module and verify it")
    c.add_argument("name", help="H31, ImD, Mmp, Ysummand, Z1, Zk, Mfinal, "
                                "or Ilambda")
    c.add_argument("params", nargs="*",
                   help="integers; for Ilambda one comma-separated partition")
    c.add_argument("--json", dest="json_out", default=None)

    s = sub.add_parser("spectrum", help="exact spectrum of a loop operator")
    s.add_argument("kind", choices=["delPQd", "PdeldQ"])
    s.add_argument("params", nargs="+", type=int,
                   help="(i, a) for delPQd; (i, k, a) for PdeldQ")
    s.add_argument("--json", dest="json_out", default=None)

    ch = sub.add_parser("character", help="evaluate a character formula")
    ch.add_argument("formula",
                    choices=["typical", "atypical", "auto", "kac", "schur"])
    ch.add_argument("label",
                    help='weight label "2,1,0|-1", or a partition for schur')
    ch.add_argument("--json", dest="json_out", default=None)

    e = sub.add_parser("export", help="export an operator matrix or a basis")
    esub = e.add_subparsers(dest="what", required=True)
    em = esub.add_parser("matrix")
    em.add_argument("which", choices=["d", "del", "P", "Q"])
    em.add_argument("pair", help='degree pair "k,l"')
    em.add_argument("alphabet", nargs="?", default="3,1", help='"m,n"')
    em.add_argument("--out", default=None)
    eb = esub.add_parser("basis")
    eb.add_argument("kind", choices=["sym", "alt"])
    eb.add_argument("degree", type=int)
    eb.add_argument("alphabet", nargs="?", default="3,1")
    eb.add_argument("--dual", action="store_true")
    eb.add_argument("--out", default=None)
    return ap


def _cmd_verify(args):
    knobs = {name: getattr(args, name) for name in harness.PLAN_DEFAULTS}
    knobs["checks"] = tuple(
        c.strip() for c in args.checks.split(",") if c.strip())
    plan = VerificationPlan(**knobs).validate()
    if args.json_out:
        # refuse an unwritable report path before the run, not after it
        open(args.json_out, "a", encoding="utf-8").close()
    report = harness.run(plan)
    if args.json_out:
        _emit(report.to_json(), args.json_out)
    s = report.summary
    print(f"pass {s['pass']}  fail {s['fail']}  skip {s['skip']}  "
          f"findings {s['findings']}")
    for f in report.findings:
        print(f"finding [{f['claim']}] {f['description']}")
    if not args.json_out:
        for r in report.records:
            if r["status"] == "fail":
                print(f"FAIL [{r['claim']}] {json.dumps(r['params'])}")
    return report.exit_code()


def _cmd_construct(args):
    name = args.name
    if name.lower() == "ilambda":
        if len(args.params) != 1:
            raise ValueError("Ilambda takes one comma-separated partition")
        params = parse_ints(args.params[0])
    else:
        params = tuple(int(p) for p in args.params)
    out = harness.construct_report(name, params)
    _emit(out, args.json_out)
    return 0 if out["ok"] else 1


def _cmd_spectrum(args):
    out = harness.spectrum_report(args.kind, tuple(args.params))
    _emit(out, args.json_out)
    if not out["ok"]:
        return 1
    return 0 if out["matches_stated"] in (True, None) else 1


def _cmd_character(args):
    if args.formula == "schur":
        label = parse_ints(args.label)
    else:
        label = parse_label(args.label)
    out = harness.character_report(args.formula, label)
    _emit(out, args.json_out)
    return 0


def _cmd_export(args):
    if args.what == "matrix":
        out = harness.export_matrix(
            args.which, parse_ints(args.pair), parse_ints(args.alphabet))
    else:
        out = harness.export_basis(
            args.kind, args.degree, parse_ints(args.alphabet),
            dual=args.dual)
    _emit(out, args.out)
    return 0


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "construct": _cmd_construct,
        "spectrum": _cmd_spectrum,
        "character": _cmd_character,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except WitnessedError as e:
        witness = json.dumps({"witness": e.witness}, sort_keys=True, default=str)
        print(f"error: {e}\n{witness}", file=sys.stderr)
        return 1
    except (PlanError, CharacterError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # only the output is written: a --json or --out file, or stdout
        target = "output" if e.filename is None else e.filename
        print(f"error: cannot write {target}: {e.strerror or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
