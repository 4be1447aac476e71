"""The package's one root finder: bracketed Newton on a row of brackets.

The iteration requires a sign-changing bracket per lane and never leaves
it: it takes Newton steps when they stay inside the current bracket and
bisects otherwise, so it converges for any continuous increasing residual.
A lane with no start of its own starts where the inverse cubic Hermite
interpolant of its bracket ends crosses zero.  It stops on the residual,
or on one tolerance, xtol + rtol |x|, that the bracket width, a Newton step
(the safeguarded Newton of Press et al., *Numerical Recipes* §9.4,
``rtsafe``) or, in a row with no residual tolerance, the residual's noise
floor falls below.

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
# The noise-floor stop: a Newton step of at most this many tol that fails only the creep test.
# From 8 up to 1024, sigma stops on the same lanes at every d measured up to 8001; 4 misses some.
_FLOOR_STEPS = 16
# The loop's constant operands as 0-d arrays: numpy converts a Python float operand on
# every call, a tenth of a one-lane round's time; the bits are the same.
_ZERO, _HALF, _TWO = np.array(0.0), np.array(0.5), np.array(2.0)


def _inverse_hermite(lo, hi, flo, fhi, dlo, dhi, mid):
    """Where the cubic Hermite interpolant of x(f) through the bracket ends,
    with slopes 1/dlo and 1/dhi, crosses f = 0 (in the standard basis, at
    u = -flo / (fhi - flo)); ``mid`` where a slope is not positive and finite
    or the point is not strictly inside the bracket."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = fhi - flo
        u = -flo / h
        x = (2 * u**3 - 3 * u**2 + 1) * lo + (u**3 - 2 * u**2 + u) * h / dlo
        x = x + (-2 * u**3 + 3 * u**2) * hi + (u**3 - u**2) * h / dhi
        ok = (0.0 < dlo) & (dlo < np.inf) & (0.0 < dhi) & (dhi < np.inf) & (lo < x) & (x < hi)
    return np.where(ok, x, mid)


def newton_rows(
    f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo,
    hi,
    *,
    x0=None,
    xtol: float,
    rtol: float = 0.0,
    ftol: float = 0.0,
    lane_name: Callable[[int], str] = str,
) -> np.ndarray:
    """Safeguarded Newton iteration for increasing residuals on a row of
    brackets [lo[i], hi[i]] (scalars broadcast).

    ``f(x, lanes)`` returns the residual and the slope of lane ``lanes[k]``
    at ``x[k]``, from one evaluation (the ``funcd`` of ``rtsafe``); each
    round calls it once, on the lanes still iterating; the first call is on
    the bracket ends.  A lane starts at ``x0`` clipped to its bracket, or
    else where the inverse cubic Hermite interpolant of its ends (residuals
    and slopes) crosses zero, or at its midpoint when an end slope is not
    positive and finite or that point is not strictly inside.  Newton steps
    that leave the current bracket (or have no positive slope, or fail to
    shrink the step before last fast enough) are replaced with bisection
    steps.  Each round a lane has one tolerance, ``tol = xtol + rtol * |x|``
    at the iterate x just evaluated, and stops by the first rule that
    applies: at x, when |f(x)| <= ``ftol`` or, in a row with ``ftol = 0``,
    a Newton step inside the bracket fails only the shrink test and is at
    most ``_FLOOR_STEPS * tol`` (the residual's noise floor, which a row
    that sets ``ftol`` puts below it); at the midpoint, when the bracket is
    at most ``tol`` wide; at the Newton iterate, when the step is at most
    ``tol``; or when the bracket can no longer be split in floating point.
    Raises NumericError, naming the lane (``lane_name`` of its index in the
    row), when a bracket does not change sign or a lane runs out of budget.
    """
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    x = 0.5 * (lo + hi) if x0 is None else np.minimum(np.maximum(x0, lo), hi)
    lo, hi = (end if end.shape == x.shape else np.broadcast_to(end, x.shape) for end in (lo, hi))
    n = x.size
    if not n:  # an empty row: no residual call
        return np.empty(0)
    every = np.arange(n)
    ends, slopes = f(np.concatenate([lo, hi]), np.concatenate([every, every]))
    flo, fhi = ends[:n], ends[n:]
    if x0 is None:
        x = _inverse_hermite(lo, hi, flo, fhi, slopes[:n], slopes[n:], x)
    bad = (flo > 0.0) | (fhi < 0.0)
    if np.count_nonzero(bad):
        i = np.argmax(bad)  # the first
        raise NumericError(
            f"not a sign-changing bracket in lane {lane_name(i)}: f({lo[i]})={flo[i]}, f({hi[i]})={fhi[i]}"
        )
    roots = np.where(flo == 0.0, lo, hi)  # right for lanes with a root at a bracket end
    lane = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    del ends, slopes, flo, fhi  # the 2n-lane residual is not needed in the loop
    lo, hi, x = lo[lane], hi[lane], x[lane]
    step = step_old = hi - lo
    if not lane.size:
        return roots
    floor_stop = not ftol
    xtol, rtol, ftol = (np.array(v) for v in (xtol, rtol, ftol))  # 0-d, as _ZERO is
    for _ in range(_MAX_ITER):
        fx, dfx = f(x, lane)
        abs_fx = np.abs(fx)
        below = fx < _ZERO
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        width, mid = hi - lo, _HALF * (lo + hi)
        tol = xtol + rtol * np.abs(x)  # the one tolerance of every stop below
        narrow = width <= tol
        # Reject the Newton step when it leaves the bracket or when it fails
        # to shrink the step before last fast enough (flat-tail creep); bisect.
        # A step that fails only the shrink test and is at most _FLOOR_STEPS tol is rounding
        # noise: stop at x.  Not where ftol is set: the floor is below ftol, so that is creep.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            newton = (dfx > _ZERO) & (((x - hi) * dfx - fx) * ((x - lo) * dfx - fx) < _ZERO)
            shrinks = _TWO * abs_fx <= np.abs(step_old * dfx)
            at_root = abs_fx <= ftol
            if floor_stop:
                at_root |= newton & ~shrinks & (abs_fx <= _FLOOR_STEPS * tol * dfx)
            newton &= shrinks
            step_old, step = step, np.where(newton, fx / dfx, _HALF * width)
        x_step = np.where(newton, x - step, lo + step)
        small = newton & (np.abs(step) <= tol)
        done = at_root | narrow | small
        inside = (lo < x_step) & (x_step < hi)
        if np.count_nonzero(inside) < inside.size:
            # rounding pushed the iterate onto the boundary: bisect instead, and
            # stop only if even the midpoint cannot separate the bracket
            done |= ~inside & ~((lo < mid) & (mid < hi))
        finished = np.count_nonzero(done)
        if finished:
            # the first rule that applies picks the root: x, the midpoint, the Newton iterate
            root = np.where(at_root, x, np.where(small & ~narrow, x_step, mid))
            if finished == lane.size:
                roots[lane] = root
                return roots
            roots[lane[done]] = root[done]
            keep = ~done
            lane, lo, hi, mid, inside, x_step, step, step_old = (
                v[keep] for v in (lane, lo, hi, mid, inside, x_step, step, step_old)
            )
        x = np.where(inside, x_step, mid)
    raise NumericError(f"root finder did not converge in lane {lane_name(lane[0])} on [{lo[0]}, {hi[0]}]")
