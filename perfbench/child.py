"""One benchmark process: a single superkoszul CLI request in a fresh
interpreter, as a user's `python -m superkoszul.cli ...` would run it.

    python3 perfbench/child.py META [--trace SPANS] [--probe] [--gauge PERIOD] -- CLI ARGS...

The request's stdout, stderr and exit code are the CLI's own.  META receives
a JSON object with the moment the request was parsed (`time.perf_counter`,
which is CLOCK_MONOTONIC on Linux and so comparable with the parent's
clock), peak RSS, CPU time and, with --trace, the tracer's summary; SPANS
receives the raw spans.  --probe stops right after parsing, to sample the
set-up cost alone.  --gauge times the reference kernel (reference.py) when
the request has been parsed and then every PERIOD seconds until it ends,
from a timer signal, and records each sample's start and duration in
META, so that the runner can tell a slow spell of the host from a slow
program.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class _Parsed(Exception):
    """Raised out of argument parsing in --probe mode."""


def _timed_parser(cli, marks, probe, gauge):
    build = cli._build_parser

    def build_and_mark():
        ap = build()
        parse = ap.parse_args

        def parse_args(args=None, namespace=None):
            ns = parse(args, namespace)
            marks["parsed_at"] = time.perf_counter()
            if probe:
                raise _Parsed
            if gauge is not None:
                gauge.start()
            return ns

        ap.parse_args = parse_args
        return ap

    cli._build_parser = build_and_mark


class _Gauge:
    """Reference samples taken every `period` seconds of wall time:
    [(start, seconds)]."""

    def __init__(self, period):
        self.sample = None
        self.samples = []
        self.period = period

    def _tick(self, signum, frame):
        # a collection of the request's heap must not land in a sample
        collecting = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            self.samples.append((t, self.sample()))
        finally:
            if collecting:
                gc.enable()

    def start(self):
        # imported here, after the parse mark, so that it costs set-up nothing
        import reference

        self.sample = reference.sample
        # one sample at once, so that even a request shorter than a period
        # has its speed gauged while it runs
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv):
    sep = argv.index("--")
    opts, request = argv[:sep], argv[sep + 1:]
    meta_path = Path(opts[0])
    spans_path = Path(opts[opts.index("--trace") + 1]) if "--trace" in opts else None
    probe = "--probe" in opts
    period = float(opts[opts.index("--gauge") + 1]) if "--gauge" in opts else None

    import superkoszul
    from superkoszul import cli

    # the benchmark measures the checkout's own sources, never an installed copy
    if Path(superkoszul.__file__).resolve().parent != SRC / "superkoszul":
        print(f"benchmark child: superkoszul imported from "
              f"{superkoszul.__file__}, expected {SRC}", file=sys.stderr)
        return 3

    marks = {}
    gauge = _Gauge(period) if period else None
    _timed_parser(cli, marks, probe, gauge)
    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer(run_id=spans_path.stem)
        spans.install(tracer)
    try:
        code = cli.main(request)
    except _Parsed:
        code = 0
    finally:
        if gauge is not None:
            gauge.stop()
    sys.stdout.flush()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    meta = {
        "parsed_at": marks.get("parsed_at"),
        "exit": code,
        "maxrss_kb": ru.ru_maxrss,
        "cpu_s": ru.ru_utime + ru.ru_stime,
    }
    if gauge is not None:
        meta["gauge"] = gauge.samples
    if tracer is not None:
        meta["trace"] = tracer.summary()
        tracer.dump(spans_path)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
