"""Checks on the benchmark itself.

    python3 perfbench/selftest.py

1. A perturbed answer is counted as a failure (so ok_share drops below 1).
2. On a tiny plan (every bound 1, all eight groups) and one request of each
   query kind, the traced answers equal the untraced ones, and every span
   the tracer defines fires at least once.
3. After `spans.install`, no reference to an unwrapped function is left in
   any superkoszul module or class, aliases such as SparseMap.__matmul__
   and names imported into other modules included.
4. A request that samples the reference kernel inside itself (--gauge)
   answers as pinned and records its samples.
5. BENCHMARK.json declares exactly the metrics the runner prints.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import run
import spans

TINY_PLAN = ["verify", "--max-k", "1", "--max-l", "1", "--max-i", "1",
             "--max-a", "1", "--max-p", "1", "--max-r", "1"]
TINY_QUERIES = ["construct H31", "construct ImD 2 2", "spectrum delPQd 1 1",
                "character kac 3,1,-2|0", "character schur 2,1",
                "export matrix d 1,1", "export basis alt 2"]
# Only runs when the predicted spectrum fails, which no CLI request reaches
# at the seed; check 3 drives it directly.
FALLBACK_SPANS = {"linalg.SparseMap.rational_spectrum"}

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_perturbations(pins, work):
    ln = run.launch(["construct", "H31"], work, "h31")
    got = run.answer(ln)
    expect(run.check(pins["construct H31"], got) == (1, 0),
           "unmodified query answer passes")
    ln.stdout = ln.stdout.replace(b"H31", b"H3l", 1)
    expect(run.check(pins["construct H31"], run.answer(ln))[1] == 1,
           "query with perturbed stdout fails")
    expect(run.check(pins["construct H31"], {**got, "exit": 2})[1] == 1,
           "query with unexpected exit code fails")

    pin = pins["operators"]
    n = len(pin["records"])
    good = copy.deepcopy(pin)
    expect(run.check(pin, good) == (n, 0), "pinned grid answer passes")
    key = sorted(pin["records"])[0]
    bad = copy.deepcopy(pin)
    bad["records"][key][1] = "0" * 64
    expect(run.check(pin, bad) == (n, 1), "grid record with changed body fails")
    bad = copy.deepcopy(pin)
    bad["records"][key][0] = "fail"
    expect(run.check(pin, bad) == (n, 1), "grid record with status fail fails")
    bad = copy.deepcopy(pin)
    del bad["records"][key]
    expect(run.check(pin, bad) == (n, 1), "missing grid record fails")
    bad = copy.deepcopy(pin)
    bad["rest"] = "0" * 64
    expect(run.check(pin, bad) == (n, 1), "changed findings or summary fail")
    expect(run.check(pin, {"exit": -9, "stdout": ""}) == (n, n),
           "crashed grid process fails every record")


def check_tracing(work):
    requests = [TINY_PLAN] + [q.split() for q in TINY_QUERIES]
    fired = set()
    for i, argv in enumerate(requests):
        plain = run.launch(argv, work, f"plain{i}")
        traced = run.launch(argv, work, f"traced{i}", trace=True)
        same = (plain.meta is not None and traced.meta is not None
                and run.answer(plain) == run.answer(traced))
        expect(same, f"traced answer equals untraced: {' '.join(argv[:3])}")
        if traced.meta:
            fired.update(traced.meta["trace"]["fired"])
    missing = set(spans.SPAN_NAMES) - fired - FALLBACK_SPANS
    expect(not missing, f"every span fires ({len(spans.SPAN_NAMES)} defined)"
           + (f"; never fired: {sorted(missing)}" if missing else ""))


def check_gauge(pins, work):
    period, run.GAUGE_PERIOD_S = run.GAUGE_PERIOD_S, 0.05
    try:
        ln = run.launch("construct ImD 2 3".split(), work, "gauged", gauge=True)
    finally:
        run.GAUGE_PERIOD_S = period
    expect(run.check(pins["construct ImD 2 3"], run.answer(ln)) == (1, 0),
           "gauged request answers as pinned")
    samples = (ln.meta or {}).get("gauge", [])
    expect(len(samples) >= 2
           and all(ln.started < t and g > 0 for t, g in samples),
           f"gauged request records reference samples ({len(samples)})")


def check_patching():
    sys.path.insert(0, str(run.SRC))
    originals = {id(spans.original(spec)[0]) for spec in spans.SPECS}
    tracer = spans.Tracer(run_id="selftest")
    spans.install(tracer)
    left = []
    for mod in spans._package_modules():
        for owner in [mod] + spans._classes(mod):
            for k, v in vars(owner).items():
                fn = getattr(v, "__func__", v)
                if id(fn) in originals:
                    left.append(f"{owner.__name__}.{k}")
    expect(not left, "no unwrapped reference left"
           + (f": {left}" if left else ""))

    from fractions import Fraction

    from superkoszul import koszul
    from superkoszul.linalg import SparseMap

    eye = SparseMap.identity(2)
    _ = eye @ eye
    expect(tracer.counts.get("linalg.compose_calls") == 1,
           "a @ b is traced as compose")
    rep = koszul.verify_spectrum([eye], 2, frozenset({Fraction(2)}), None,
                                 "delPQd", (0, 0))
    expect(rep.eigenvalues == ((Fraction(1), 2),)
           and "linalg.SparseMap.rational_spectrum" in tracer.fired
           and tracer.counts.get("koszul.spectra_predicted") == 1
           and "koszul.spectra_annihilated" not in tracer.counts,
           "a failed prediction takes the fallback and is not counted as "
           "annihilated")


def check_declared_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(declared == run.END_TO_END,
           "BENCHMARK.json end_to_end matches what --trace 0 prints")
    empty = {"launches": [], "wall_s": 0.0}
    emitted = {k: u for k, (_, u) in run.layer_metrics(empty, empty).items()}
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared == emitted,
           "BENCHMARK.json per_layer matches what --trace 1 prints")


def main():
    check_declared_metrics()
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    work = run.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_perturbations(pins, work)
        check_tracing(work)
        check_gauge(pins, work)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    check_patching()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
