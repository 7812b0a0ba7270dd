"""A fixed reference computation that measures how fast the machine is right now.

On a shared host the speed of a core drifts by half or more over minutes,
so an op's wall time in ms moves between two runs of the same code.  The
benchmark times this computation immediately before every op, on the same
core, and reports the op's wall time as a multiple of it (op_ref_ratio):
the drift slows both alike and cancels.  The computation is not wedgeq's
code and lives only here, so a change to wedgeq cannot move it; it mixes
what wedgeq ops spend their time on: a pure-Python loop, and numpy random
draws and array passes over a few MB (the shape of the simulator's core).
"""

import time

import numpy as np

LOOP = 20_000
ARRAY = 200_000


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    x = np.random.default_rng(1).exponential(size=ARRAY)
    y = np.cumsum(x)
    float(np.maximum(y - x.mean() * np.arange(y.size), 0.0).sum())
    return time.perf_counter() - t0
