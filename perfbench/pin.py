"""Record the pinned answers the benchmark checks every request against.

    python3 perfbench/pin.py

Runs each grid workload once and every request of every query pool once,
cold and untraced, and writes perfbench/pins.json.  Re-pinning is only
right when an answer changes on purpose; the benchmark exists to catch the
other kind of change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main():
    work = run.WORK / "pin"
    work.mkdir(parents=True, exist_ok=True)
    pins = {}
    try:
        requests = [(w, run.make_ops(w, 0)[0][1]) for w in run.GRID_GROUPS]
        requests += [(q, q.split()) for _, pool in run.QUERY_POOLS
                     for q in pool]
        for i, (key, argv) in enumerate(requests):
            ln = run.launch(argv, work, f"pin{i}")
            if ln.returncode not in (0, 1) or ln.meta is None:
                sys.stderr.write(ln.stderr.decode(errors="replace"))
                raise SystemExit(f"{key}: exit {ln.returncode}")
            pins[key] = run.answer(ln)
            print(f"{key}: exit {ln.returncode}", file=sys.stderr)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
