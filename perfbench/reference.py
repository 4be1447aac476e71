"""High-precision references for ``verified_digits``, computed with mpmath.

Nothing here imports ``spectra_theta``: the references are the paper's
definitions evaluated at 40 significant digits, so a kernel change that costs
accuracy moves the digit count.  They are computed in the parent process,
outside every timed region.
"""

from __future__ import annotations

import math

import mpmath as mp

from workloads import MEDIAN_SHAPES, THETA_DS, WITNESS

mp.mp.dps = 40
# A float64 value can agree with a 40-digit reference exactly only at a
# rational point (an equipoint of 1/2, say); this floor keeps the digit count
# finite if every compared value were such a point.
ERROR_FLOOR = 1e-17


def _inv_theta_even(d: int) -> mp.mpf:
    """1/theta(d) for even d: Gamma(1/2 + d/4) / (Gamma(1 + d/4) sqrt(pi))."""
    return mp.exp(mp.loggamma(mp.mpf(1) / 2 + mp.mpf(d) / 4) - mp.loggamma(1 + mp.mpf(d) / 4)) / mp.sqrt(mp.pi)


def _ibeta(a, b, x) -> mp.mpf:
    return mp.betainc(a, b, 0, x, regularized=True)


def _root(f, lo: float, hi: float) -> mp.mpf:
    """Root of f on a bracket widened around the analytic bounds [lo, hi]."""
    lo, hi = min(lo, hi), max(lo, hi)
    return mp.findroot(f, (mp.mpf(max(lo - 0.05, 1e-6)), mp.mpf(min(hi + 0.05, 1 - 1e-6))),
                       solver="anderson")


def _equipoint(s: int, t: int) -> mp.mpf:
    """The e with I_e(s, t+1) + I_e(s+1, t) = 1; 1 by convention when t = 0."""
    if t == 0:
        return mp.mpf(1)
    return _root(lambda x: _ibeta(s, t + 1, x) + _ibeta(s + 1, t, x) - 1,
                 (s + 1) / (s + t + 2), s / (s + t))


def _median(s: float, t: float) -> mp.mpf:
    """The m with I_m(s, t) = 1/2."""
    s, t = mp.mpf(s), mp.mpf(t)
    mean = s / (s + t)
    return _root(lambda x: _ibeta(s, t, x) - mp.mpf(1) / 2, float(mean), float(mean + (s - t) / (s + t) ** 2))


def references(workload: str) -> dict[str, mp.mpf]:
    """Reference value for every float a workload's ops report."""
    if workload == "theta_scan":
        return {f"inv_theta_{d}": _inv_theta_even(d) for d in THETA_DS if d % 2 == 0}
    if workload == "verify_sweeps":
        refs = {f"equipoint_{s}_{10 - s}": _equipoint(s, 10 - s) for s in range(1, 11)}
        refs.update({f"median_{s:g}_{t:g}": _median(s, t) for s, t in MEDIAN_SHAPES})
        return refs
    if workload == "matrix_cert":
        return {f"inv_theta_{WITNESS['d']}": _inv_theta_even(WITNESS["d"])}
    raise ValueError(f"unknown workload {workload!r}")


def verified_digits(values: dict[str, float], refs: dict[str, mp.mpf]) -> float:
    """-log10 of the worst absolute error of ``values`` against ``refs``.

    Every reference must be matched by a reported value and vice versa.
    """
    if set(values) != set(refs):
        raise ValueError(f"reported values {sorted(values)} do not match references {sorted(refs)}")
    worst = max(abs(mp.mpf(values[k]) - refs[k]) for k in refs)
    return -math.log10(max(float(worst), ERROR_FLOOR))
