"""Host-speed probe: a fixed reference kernel timed between evaluations.

On a shared host a core's speed changes from second to second with load
from outside the process: on a 2-core x86 VM a fixed unit of work swung
by 1.4-2x, and identical seeded runs took from 6.1 to 11.8 s.  The
benchmark times this kernel, which runs no dimsched code, just before
every objective evaluation.  A time measured next to it, divided by the
kernel's time over NOMINAL_S, is the time at the reference host's speed:
a change to dimsched moves it, load from outside moves it far less.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on a quiet 2-core x86 reference host.
NOMINAL_S = 0.3e-3

# Like the optimizer's own work: interpreter steps and small dense algebra.
_A = np.random.default_rng(0).random((40, 40))
_A = _A @ _A.T + 40.0 * np.eye(40)


def probe() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    for _ in range(4):
        np.linalg.cholesky(_A)
        np.linalg.solve(_A, _A[0])
    return time.perf_counter() - t0
