"""Fixed reference work that gauges how fast the host is right now.

The benchmark shares a host with other tenants whose load changes the
speed of the same code by up to 2x, within seconds, on each CPU on its
own.  The runner pins itself and its requests to one CPU and times this
kernel on that CPU between requests and inside them, so that every
stretch of a request's time can be scaled to a host on which the kernel
takes `NOMINAL_S` seconds.

The kernel is the inner loop of `superkoszul.linalg.SparseMap.compose`
(dict-of-columns sparse matrices over exact rationals), copied here and
frozen so that a change to the package never changes the gauge.

Set-up time is mostly starting an interpreter and importing modules, which
a pure-Python loop tracks poorly (a spawn pays for page faults, exec and
unmarshalling too).  So set-up times are scaled by `spawn` instead: a fresh
interpreter that imports a frozen list of the standard-library modules the
package imports, taking `SPAWN_NOMINAL_S` seconds on the reference host.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from fractions import Fraction

# The speed figures are scaled to: seconds per sample (see README).
NOMINAL_S = 0.025

# The speed set-up figures are scaled to: seconds per reference spawn.
SPAWN_NOMINAL_S = 0.05
_SPAWN = [sys.executable, "-c",
          "import argparse, dataclasses, fractions, hashlib, inspect, json, "
          "tempfile"]

_DIM = 70
_FILL = 0.12


def _matrix(rng):
    cols = {}
    for c in range(_DIM):
        col = {}
        for r in range(_DIM):
            if rng.random() < _FILL:
                col[r] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        cols[c] = col
    return cols


_RNG = random.Random(20100205)
_A = _matrix(_RNG)
_B = _matrix(_RNG)


def _compose(a_cols, b_cols):
    zero = Fraction(0)
    out = {}
    for c, bcol in b_cols.items():
        acc = {}
        for k, x in bcol.items():
            col = a_cols.get(k)
            if not col:
                continue
            for r, v in col.items():
                s = acc.get(r, zero) + x * v
                if s:
                    acc[r] = s
                else:
                    del acc[r]
        for r, v in acc.items():
            out[(r, c)] = v
    return out


def sample():
    """Seconds one run of the kernel takes now."""
    t = time.perf_counter()
    _compose(_A, _B)
    return time.perf_counter() - t


def block(n):
    """n samples taken back to back."""
    return [sample() for _ in range(n)]


def spawn(env, cwd):
    """Seconds the reference interpreter takes now, from spawn to exit."""
    t = time.perf_counter()
    subprocess.run(_SPAWN, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - t
