"""The package's one root finder: bracketed Newton on a row of brackets.

The iteration requires a sign-changing bracket per lane and never leaves
it: it takes Newton steps when they stay inside the current bracket and
bisects otherwise, so it converges for any continuous increasing residual.
It stops on the residual, on the bracket width, or (the safeguarded Newton
of Press et al., *Numerical Recipes* §9.4, ``rtsafe``) as soon as a Newton
step is below the tolerance.

The step rule is written once, as one masked numpy loop over the lanes
still iterating.  Each round makes one residual call, which returns the
residual and its slope together, as ``rtsafe``'s ``funcd`` does.  Every
root of the package is a row: sigma_{s,t} over the splits of theta(d),
equipoints, medians and the inverse incomplete beta.  A scalar root is a
one-lane row, and a lane gets the same bits in any row.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError

_MAX_ITER = 200


def newton_rows(
    f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo,
    hi,
    *,
    x0=None,
    xtol: float,
    rtol: float = 0.0,
    ftol: float = 0.0,
) -> np.ndarray:
    """Safeguarded Newton iteration for increasing residuals on a row of
    brackets [lo[i], hi[i]] (scalars broadcast).

    ``f(x, lanes)`` returns the residual and the slope of lane ``lanes[k]``
    at ``x[k]``, from one evaluation (the ``funcd`` of ``rtsafe``); each
    round calls it once, on the lanes still iterating, and the bracket ends
    use its residual only.  A lane starts at ``x0`` clipped to its bracket,
    or at its midpoint.  Newton steps that leave the current bracket (or
    have no positive slope, or fail to shrink the step before last fast
    enough) are replaced with bisection steps.  A lane stops, by the first
    rule that applies: when its residual magnitude drops to ``ftol``; when
    its bracket width drops to ``xtol + rtol * max(|lo|, |hi|)``; when a
    Newton step is at most ``xtol + rtol * |x|``; or when its bracket can no
    longer be split in floating point.  Raises NumericError, naming the
    lane, when a bracket does not change sign or a lane runs out of its
    iteration budget.
    """
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    x = 0.5 * (lo + hi) if x0 is None else np.minimum(np.maximum(x0, lo), hi)
    lo, hi, x = np.broadcast_arrays(lo, hi, x)
    n = x.size
    if not n:  # an empty row: no residual call
        return np.empty(0)
    every = np.arange(n)
    ends = f(np.concatenate([lo, hi]), np.concatenate([every, every]))[0]
    flo, fhi = ends[:n], ends[n:]
    bad = np.flatnonzero((flo > 0.0) | (fhi < 0.0))
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"not a sign-changing bracket in lane {i}: f({lo[i]})={flo[i]}, f({hi[i]})={fhi[i]}"
        )
    roots = np.where(flo == 0.0, lo, hi)  # right for lanes with a root at a bracket end
    lane = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    lo, hi, x = lo[lane], hi[lane], x[lane]
    step = step_old = hi - lo
    for _ in range(_MAX_ITER):
        if not lane.size:
            return roots
        fx, dfx = f(x, lane)
        at_root = np.abs(fx) <= ftol
        lo, hi = np.where(fx < 0.0, x, lo), np.where(fx < 0.0, hi, x)
        mid = 0.5 * (lo + hi)
        narrow = hi - lo <= xtol + rtol * np.maximum(np.abs(lo), np.abs(hi))
        # Reject the Newton step when it leaves the bracket or when it fails
        # to shrink the step before last fast enough (flat-tail creep); bisect.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            newton = (
                (dfx > 0.0)
                & (((x - hi) * dfx - fx) * ((x - lo) * dfx - fx) < 0.0)
                & (np.abs(2.0 * fx) <= np.abs(step_old * dfx))
            )
            step_old, step = step, np.where(newton, fx / dfx, 0.5 * (hi - lo))
        x_step = np.where(newton, x - step, lo + step)
        small = newton & (np.abs(step) <= xtol + rtol * np.abs(x_step))
        # rounding pushed the iterate onto the boundary: bisect instead, and
        # stop only if even the midpoint cannot separate the bracket
        inside = (lo < x_step) & (x_step < hi)
        stuck = ~inside & ~((lo < mid) & (mid < hi))
        done = at_root | narrow | small | stuck
        if done.any():
            # the first rule that applies picks the root: x, the midpoint, the Newton iterate
            root = np.where(at_root, x, np.where(small & ~narrow, x_step, mid))
            roots[lane[done]] = root[done]
            keep = ~done
            lane, lo, hi, mid, inside, x_step, step, step_old = (
                v[keep] for v in (lane, lo, hi, mid, inside, x_step, step, step_old)
            )
        x = np.where(inside, x_step, mid)
    if lane.size:
        raise NumericError(
            f"root finder did not converge in lane {lane[0]} on [{lo[0]}, {hi[0]}]"
        )
    return roots
