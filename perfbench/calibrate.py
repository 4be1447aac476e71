"""A fixed probe of how fast the host runs the interpreter right now.

The host's speed drifts by tens of percent in phases of tens of seconds (other
tenants of the machine come and go), and CPU time drifts with it.  So each
repetition times this probe in its own process, just before and just after
the op list, and ``run.py`` rescales the repetition's time by it: the metric
then moves with the library's code and much less with the host.

The probe never calls ``spectra_theta``, so a change to the library cannot
move it.  It mixes what the workloads spend their time on: scalar float loops
in the interpreter (a Lentz continued fraction, as in incomplete betas) and
small numpy/LAPACK calls (as in the pencils and dilations).
"""

from __future__ import annotations

import math
import time

import numpy as np

# The median probe time on the 2-vCPU host the bounds were set on.  A
# rescaled time is the time the op list would take on a host where one probe
# takes this long.
REFERENCE_PROBE_S = 0.010
PROBES = 15  # before the op list, and again after it

_MATRIX = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])


def _tan_cf(x: float, terms: int = 40) -> float:
    """tan(x) by its continued fraction, evaluated with Lentz's method."""
    tiny = 1e-300
    f = c = tiny
    d = 0.0
    for k in range(1, terms):
        a = x if k == 1 else -x * x
        b = 2.0 * k - 1.0
        d = b + a * d
        d = 1.0 / (d if d != 0.0 else tiny)
        c = b + a / c
        c = c if c != 0.0 else tiny
        f *= c * d
    return f


def probe_s() -> float:
    """Seconds taken by one pass of the fixed probe (about 10 ms)."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(720):
        x = 0.1 + (i % 13) * 0.05
        acc += _tan_cf(x) + math.log1p(x) * math.exp(-x)
    for i in range(180):
        acc += float(np.linalg.eigvalsh(_MATRIX + i * 1e-3)[0])
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration probe lost its result")
    return elapsed


def probes(count: int = PROBES) -> list[float]:
    return [probe_s() for _ in range(count)]
