"""superkoszul benchmark: cold CLI requests in a closed loop, every answer
checked against the pinned answers of the seed commit.

    python3 perfbench/run.py --workload operators --seed 1 --seconds 30 --trace 0

One client, one request at a time: each request is a fresh interpreter
running `superkoszul.cli`, started after the previous one has exited, so
every request pays import and the process-global caches cold, as a command
line user does.  A pass is one full workload (one verify run for the grid
workloads, fourteen queries for `queries`); passes repeat while the next one
is expected to finish within --seconds, and the reported figures are medians
over passes.  Times are scaled to a host of fixed speed, gauged with the
reference kernel of reference.py on the CPU the requests run on, between
requests and every GAUGE_PERIOD_S inside them (see perfbench/README.md,
"Scaling to the reference host").

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass (see perfbench/README.md).  The last line of stdout is the
result object; the line before it records the environment and the sample
counts, and both are appended to perfbench/out/results.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
OUT = BENCH / "out"
WORK = BENCH / "_work"

# The default `superkoszul verify` plan, spelled out so that a change of the
# CLI defaults cannot silently change the workload.
PLAN_ARGS = ["--m", "3", "--n", "1", "--max-k", "4", "--max-l", "4",
             "--max-i", "3", "--max-a", "3", "--max-p", "3", "--max-r", "3",
             "--dim-cap", "3000", "--jobs", "1"]

# Together the two grid workloads cover every group of the default plan.
GRID_GROUPS = {
    # operator assembly, composition, elimination and loop spectra; no gl
    # action and no characters
    "operators": ("identities", "exactness", "commutativity", "spectra",
                  "splittings"),
    # generator matrices, module restriction and irreducibility; no loop
    # spectrum
    "gl-modules": ("equivariance", "constructions", "characters"),
}

# (number per pass, pool of requests of similar cost).  The seed draws the
# requests of each kind from its pool without replacement and shuffles the
# order; the count per kind is fixed so that every seed asks for the same
# kinds of work.
QUERY_POOLS = (
    (1, ("construct H31",)),
    (1, ("construct ImD 2 3", "construct ImD 1 3", "construct ImD 3 3")),
    (1, ("construct Ysummand 2 2", "construct Ysummand 1 3")),
    (1, ("construct Zk 1 2 2",)),
    (1, ("construct Mfinal 1 2 1", "construct Mfinal 2 1 1")),
    (1, ("construct Mmp 1 2", "construct Mmp 2 1")),
    (1, ("construct Ilambda 4,1", "construct Ilambda 2,1,1,1")),
    (1, ("spectrum delPQd 2 1", "spectrum delPQd 2 2")),
    (2, ("spectrum PdeldQ 1 1 2", "spectrum PdeldQ 1 2 1")),
    (2, ("character typical 3,1,-2|0", "character kac 3,1,-2|0",
         "character typical 2,1,0|-1", "character auto 2,1,-1|1",
         "character schur 3,1,1")),
    (1, ("export basis sym 4", "export basis sym 4 --dual",
         "export basis alt 4")),
    (1, ("export matrix d 3,3", "export matrix d 3,2",
         "export matrix Q 2,2")),
)

WORKLOADS = ("operators", "gl-modules", "queries")

# Launches that only import and parse, per run: set-up time is their median.
SETUP_PROBES = 30
# Reference kernel samples in one gauge of the host's speed.
GAUGE_SAMPLES = 3
# Interval of the reference samples taken inside a timed request.
GAUGE_PERIOD_S = 0.25

# A request still running after this long is killed and the run fails, so
# a pathological slowdown cannot hang the benchmark.
LAUNCH_TIMEOUT_S = 170

# name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_share": "ratio"}

LAYER_TIMES = {
    "linalg": ("compose_s", "kron_s", "add_s", "elim_s", "restrict_s",
               "subspace_s"),
    "superspace": ("factor_map_s", "split_graded_s"),
    "koszul": ("pair_op_s", "triple_op_s", "composed_s", "loop_blocks_s",
               "verify_spectrum_s", "splitting_s", "loop_spectrum_s.delPQd",
               "loop_spectrum_s.PdeldQ"),
    "glrep": ("generator_matrix_s", "on_product_s", "equivariance_s",
              "module_build_s", "irreducible_s")
    + tuple(f"family_s.{f}" for f in ("H31", "IMD", "Y", "Z1", "ZK", "MMP",
                                      "MFINAL", "ILAMBDA")),
    "characters": ("enumerate_s", "formula_s", "compare_s"),
    "harness": ("report_s",),
    "cli": ("handler_s", "emit_s"),
}
COUNTS = ("linalg.compose_calls", "linalg.eliminations",
          "superspace.basis_builds", "superspace.blocks",
          "glrep.generator_matrices")
# name -> unit
MAXIMA = {"linalg.max_block_dim": "dim", "linalg.max_entry_bits": "bits",
          "glrep.max_module_dim": "dim"}
# ratio name -> (numerator count, denominator count)
RATIOS = {
    "superspace.basis_hit_ratio": ("superspace.basis_hits",
                                   "superspace.basis_calls"),
    "koszul.annihilated_ratio": ("koszul.spectra_annihilated",
                                 "koszul.spectra_predicted"),
    "glrep.on_product_hit_ratio": ("glrep.on_product_hits",
                                   "glrep.on_product_calls"),
    "glrep.repeat_share": ("glrep.family_repeats", "glrep.family_calls"),
}
GROUPS = ("identities", "exactness", "commutativity", "equivariance",
          "spectra", "splittings", "constructions", "characters")


# ---------------------------------------------------------------------------
# workloads


def make_ops(workload, seed):
    """The requests of one pass: [(pin key, CLI argv)], from the seed only."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in GRID_GROUPS:
        groups = list(GRID_GROUPS[workload])
        rng.shuffle(groups)
        return [(workload, ["verify", *PLAN_ARGS, "--checks", ",".join(groups)])]
    if workload != "queries":
        raise ValueError(f"unknown workload {workload!r}")
    picks = [p for count, pool in QUERY_POOLS for p in rng.sample(pool, count)]
    rng.shuffle(picks)
    return [(p, p.split()) for p in picks]


def child_env():
    """The user's environment, minus anything that could warm a run.

    Bytecode caching is switched back on if the caller turned it off: an
    installed package imports from compiled bytecode, and the warm-up launch
    writes it into the checkout once, so set-up time does not depend on the
    caller's shell.
    """
    drop = ("SUPERKOSZUL_CACHE", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# launching and checking


class Launch:
    def __init__(self, started, proc, meta, report):
        self.started = started
        self.returncode = proc.returncode
        self.stdout = proc.stdout
        self.stderr = proc.stderr
        self.meta = meta
        self.report = report
        # set by setup_probes
        self.setup_scaled_s = None

    @property
    def setup_s(self):
        if not self.meta or self.meta.get("parsed_at") is None:
            return None
        return self.meta["parsed_at"] - self.started


def launch(argv, work, tag, trace=False, probe=False, gauge=False):
    """Run one request in a fresh interpreter and wait for it to end."""
    meta_path = work / f"meta-{tag}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(meta_path)]
    if trace:
        cmd += ["--trace", str(work / f"spans-{tag}.json")]
    if gauge:
        cmd += ["--gauge", str(GAUGE_PERIOD_S)]
    if probe:
        cmd.append("--probe")
    report_path = None
    if argv[0] == "verify":
        report_path = work / f"report-{tag}.json"
        argv = [*argv, "--json", str(report_path)]
    env = child_env()
    # the on-disk matrix cache must never warm a run
    if "--cache-dir" in argv or "SUPERKOSZUL_CACHE" in env:
        raise RuntimeError("benchmark requests must not use the matrix cache")
    started = time.perf_counter()
    proc = subprocess.run(cmd + ["--"] + argv, env=env, cwd=ROOT,
                          capture_output=True, check=False,
                          timeout=LAUNCH_TIMEOUT_S)
    meta = report = None
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta_path.unlink()
    if report_path is not None and report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
    return Launch(started, proc, meta, report)


def _digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def record_key(rec):
    return rec["claim"] + " " + json.dumps(rec["params"], sort_keys=True)


def answer(launch_):
    """What a request answered, in the form the pins store."""
    if launch_.meta is None:
        # the child died before recording how it ended: a crash
        return {"exit": launch_.returncode, "crashed": True}
    if launch_.report is None:
        return {"exit": launch_.returncode,
                "stdout": hashlib.sha256(launch_.stdout).hexdigest()}
    rep = launch_.report
    # plan echoes the check order and jobs; timings and meta vary per run
    return {
        "exit": launch_.returncode,
        "records": {record_key(r): [r["status"], _digest(r)]
                    for r in rep["records"]},
        "rest": _digest({"findings": rep["findings"],
                         "summary": rep["summary"]}),
    }


def check(pin, got):
    """(attempted, failed) for one request against its pinned answer.

    An operation is one report record for verify, one request otherwise.
    It fails if its status is `fail`, if it differs from the pinned answer,
    or if the process crashed or exited with an unexpected code.
    """
    if "records" not in pin:
        return 1, int(got != pin)
    attempted = len(pin["records"])
    if got.get("exit") != pin["exit"] or "records" not in got:
        return attempted, attempted
    failed = 0
    for key, (status, digest) in pin["records"].items():
        have = got["records"].get(key)
        if have is None or have[1] != digest or have[0] == "fail":
            failed += 1
    failed += sum(1 for key in got["records"] if key not in pin["records"])
    if got["rest"] != pin["rest"]:
        failed += 1
    return attempted, min(failed, attempted)


# ---------------------------------------------------------------------------
# passes


def gauge():
    """The host's speed now: seconds per reference sample, the median of
    GAUGE_SAMPLES samples taken back to back."""
    return statistics.median(reference.block(GAUGE_SAMPLES))


def scaled(t0, t1, inside, before, after):
    """Seconds from t0 to t1 at the reference speed, less the reference
    samples taken inside.

    inside: the [(start, seconds)] samples the request took; before and
    after: the speed gauged right before t0 and right after t1.  Each
    stretch between two consecutive samples is scaled by the mean of the
    two, so a slow spell weighs only on the stretch it fell into."""
    edges = ([(t0, 0.0, before)] + [(t, g, g) for t, g in inside]
             + [(t1, 0.0, after)])
    total = 0.0
    for (ta, skip, ga), (tb, _, gb) in zip(edges, edges[1:]):
        total += (tb - ta - skip) * 2 / (ga + gb)
    return total * reference.NOMINAL_S


def run_pass(ops, pins, work, tag, trace=False, timed=False):
    """One full workload, request after request.  A request's time runs
    from its launch until its answer has been checked; the pass's wall time
    is their sum.

    When timed, the host's speed is gauged before the first request and
    after each one, and sampled inside each request every GAUGE_PERIOD_S;
    the pass's time is then also scaled to the reference speed (`scaled`),
    into `scaled_s`."""
    launches = []
    attempted = failed = 0
    wall = scaled_wall = 0.0
    before = gauge() if timed else None
    for i, (key, argv) in enumerate(ops):
        t0 = time.perf_counter()
        ln = launch(argv, work, f"{tag}-{i}", trace=trace, gauge=timed)
        a, f = check(pins[key], answer(ln))
        t1 = time.perf_counter()
        attempted += a
        failed += f
        launches.append(ln)
        if not timed:
            wall += t1 - t0
            continue
        after = gauge()
        inside = [tuple(x) for x in (ln.meta or {}).get("gauge", [])]
        wall += t1 - t0 - sum(g for _, g in inside)
        scaled_wall += scaled(t0, t1, inside, before, after)
        before = after
    return {"wall_s": wall, "scaled_s": scaled_wall, "attempted": attempted,
            "failed": failed, "launches": launches}


def _keep_going(started, seconds, pass_times):
    """Start another pass only if it is expected to end within --seconds."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(pass_times) <= seconds


def setup_probes(ops, work):
    """SETUP_PROBES launches that stop after parsing, each between two
    reference spawns (`reference.spawn`), with their set-up time scaled to
    the reference spawn time by the mean of the two."""
    probes = []
    env = child_env()
    before = reference.spawn(env, ROOT)
    for i in range(SETUP_PROBES):
        ln = launch(ops[i % len(ops)][1], work, f"probe-{i}", probe=True)
        if ln.returncode != 0 or ln.setup_s is None:
            raise RuntimeError("set-up probe failed:\n"
                               + ln.stderr.decode(errors="replace"))
        after = reference.spawn(env, ROOT)
        ln.setup_scaled_s = (ln.setup_s * reference.SPAWN_NOMINAL_S * 2
                             / (before + after))
        before = after
        probes.append(ln)
    return probes


def timed_run(ops, pins, work, seconds):
    """End-to-end figures.  Times are scaled to the reference host by the
    speed gauged while they ran, so that a slow spell of the shared host
    does not read as a slower program: pass times by the reference kernel
    (`scaled`), set-up times by reference spawns (`setup_probes`).  The
    unscaled figures go into the samples."""
    started = time.perf_counter()
    probes = setup_probes(ops, work)
    passes, pass_times = [], []
    while not passes or _keep_going(started, seconds, pass_times):
        t0 = time.perf_counter()
        passes.append(run_pass(ops, pins, work, f"pass{len(passes)}",
                               timed=True))
        pass_times.append(time.perf_counter() - t0)
    launches = probes + [ln for p in passes for ln in p["launches"]]
    rss = [ln.meta["maxrss_kb"] for ln in launches if ln.meta]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "wall_s": statistics.median(p["scaled_s"] for p in passes),
        "setup_s": statistics.median(ln.setup_scaled_s for ln in probes),
        "peak_rss_mb": max(rss) / 1024,
        "ok_share": (attempted - failed) / attempted,
    }
    metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    counts = {"wall_s": len(passes), "setup_s": len(probes),
              "peak_rss_mb": len(rss), "ok_share": attempted,
              "unscaled": {"pass_walls_s": [p["wall_s"] for p in passes],
                           "setup_s": statistics.median(ln.setup_s
                                                        for ln in probes)}}
    return attempted, failed, metrics, counts


# ---------------------------------------------------------------------------
# traced runs


def _merge_traces(launches):
    self_s, incl, counts, maxima = {}, {}, {}, {}
    for ln in launches:
        t = (ln.meta or {}).get("trace")
        if not t:
            continue
        for src, dst in ((t["self_s"], self_s), (t["incl_s"], incl),
                         (t["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in t["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)
    return self_s, incl, counts, maxima


def layer_metrics(plain, traced):
    """Per-layer figures of one (untraced, traced) pass pair: name ->
    (value, unit)."""
    self_s, incl, counts, maxima = _merge_traces(traced["launches"])
    out = {}
    for layer, names in LAYER_TIMES.items():
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        for n in names:
            out[f"{layer}.{n}"] = (incl.get(f"{layer}.{n}", 0.0), "s")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    for name, unit in MAXIMA.items():
        out[name] = (maxima.get(name, 0), unit)
    for name, (num, den) in RATIOS.items():
        d = counts.get(den, 0)
        out[name] = (counts.get(num, 0) / d if d else 0.0, "ratio")
    timings = {}
    for ln in traced["launches"]:
        for g, t in ((ln.report or {}).get("timings") or {}).items():
            timings[g] = timings.get(g, 0.0) + t
    for g in GROUPS:
        out[f"harness.group_s.{g}"] = (timings.get(g, 0.0), "s")
    out["process.cpu_s"] = (sum(ln.meta["cpu_s"] for ln in plain["launches"]
                                if ln.meta), "s")
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return out


def traced_run(ops, pins, work, seconds, spans_out):
    started = time.perf_counter()
    pairs = []
    while not pairs or _keep_going(
            started, seconds,
            [p["wall_s"] + t["wall_s"] for p, t in pairs]):
        n = len(pairs)
        plain = run_pass(ops, pins, work, f"plain{n}")
        traced = run_pass(ops, pins, work, f"traced{n}", trace=True)
        pairs.append((plain, traced))
    per_pair = [layer_metrics(p, t) for p, t in pairs]
    metrics = {k: (statistics.median(m[k][0] for m in per_pair), unit)
               for k, (_, unit) in per_pair[0].items()}
    spans_out.mkdir(parents=True, exist_ok=True)
    for f in work.glob("spans-traced0-*.json"):
        shutil.copy(f, spans_out / f.name)
    attempted = sum(p["attempted"] + t["attempted"] for p, t in pairs)
    failed = sum(p["failed"] + t["failed"] for p, t in pairs)
    samples = {"pairs": len(pairs)}
    return attempted, failed, metrics, samples


# ---------------------------------------------------------------------------
# environment and output


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def environment(args, load, cpu):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_at_start": load,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "superkoszul" / "cli.py").is_file():
        print(f"no superkoszul sources under {SRC}", file=sys.stderr)
        return 2
    if not PINS.is_file():
        print(f"missing pinned answers {PINS}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    ops = make_ops(args.workload, args.seed)
    load = os.getloadavg()
    # The requests and the gauges of the host's speed share one CPU, so
    # that each gauge measures the CPU its request ran on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = WORK / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # compile the sources to bytecode once, outside the measurement
        warm = launch(ops[0][1], work, "warmup", probe=True)
        if warm.returncode != 0:
            sys.stderr.write(warm.stderr.decode(errors="replace"))
            print("superkoszul does not start", file=sys.stderr)
            return 2
        if args.trace:
            spans_out = OUT / "spans" / f"{args.workload}-seed{args.seed}"
            attempted, failed, metrics, samples = traced_run(
                ops, pins, work, args.seconds, spans_out)
        else:
            attempted, failed, metrics, samples = timed_run(
                ops, pins, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    context = {"env": environment(args, load, cpu), "samples": samples}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**context, "result": result}) + "\n")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
