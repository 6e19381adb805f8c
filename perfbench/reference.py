"""A fixed computation timed between jobs to follow the machine's speed.

On a shared host the same job runs up to twice as fast or as slow in
swings of 10 to 40 s, and CPU time moves with wall time. run.py times
this computation between jobs and scales each job's time by
NOMINAL_S / (the reference's median time around that job), which gives
the job's time at the speed where the reference takes NOMINAL_S.

It does not import momentcert, so a change to the library cannot move
it. Its two parts are the kinds of work the workloads do: exact
elimination over the rationals on a small dense matrix (cache-resident,
like the oracle), and a superset-sum pass over a list of 2^15
Fractions (a working set past the core's caches, like the lattice
transforms).
"""

from __future__ import annotations

import random
from fractions import Fraction

# The reference's median time on the machine of the first baseline
# (perfbench/BASELINE.md); it only sets the scale of calibrated times.
NOMINAL_S = 0.055

_DIM = 16
_BITS = 15


def _matrix() -> list[list[Fraction]]:
    rng = random.Random(7)
    return [[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(_DIM)]
            for _ in range(_DIM)]


_LIST = [Fraction(m % 7, 3) for m in range(1 << _BITS)]


def run_once() -> Fraction:
    """One reference computation; returns a value so the work is not skipped."""
    m = _matrix()
    for i in range(_DIM):
        pivot = m[i][i] or Fraction(1)
        row = m[i]
        for r in range(i + 1, _DIM):
            f = m[r][i] / pivot
            m[r] = [a - f * b for a, b in zip(m[r], row)]
    out = list(_LIST)
    bit = 1 << (_BITS - 4)
    for mask in range(1 << _BITS):
        if not mask & bit:
            out[mask] = out[mask] + out[mask | bit]
    return m[-1][-1] + out[0]
