"""The package's one root finder: bracketed Newton, one step rule with two drivers.

The iteration requires a sign-changing bracket and never leaves it: it
takes Newton steps when they stay inside the current bracket and bisects
otherwise, so it converges for any continuous increasing residual.  It stops
on the residual, on the bracket width, or (the safeguarded Newton of
Press et al., *Numerical Recipes* §9.4, ``rtsafe``) as soon as a Newton step
is below the tolerance.

The step rule is written once, as the coroutine ``_newton_steps``; two
drivers feed it residuals.  ``newton_bracketed`` solves one root with
scalar callables (the equipoint and the inverse incomplete beta);
``newton_rows`` advances a whole row of brackets per round with one array
evaluation of the residual and one of its slope (sigma_{s,t} over every
split of theta(d)).  Both give the same bits for the same lane.
"""

from __future__ import annotations

from typing import Callable, Generator

import numpy as np

from .errors import NumericError


def _newton_steps(
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    x0: float | None,
    xtol: float,
    rtol: float,
    ftol: float,
    max_iter: int,
) -> Generator[float, tuple[float, float], float]:
    """The safeguarded Newton iteration on [lo, hi] as a coroutine.

    Yields each point to evaluate and receives (f(x), f'(x)) there; returns
    the root.  flo and fhi are the residuals at the bracket ends.
    """
    if flo > 0.0 or fhi < 0.0:
        raise NumericError(f"not a sign-changing bracket: f({lo})={flo}, f({hi})={fhi}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    x = 0.5 * (lo + hi) if x0 is None else min(max(x0, lo), hi)
    step_old = hi - lo
    step = step_old
    fx, dfx = yield x
    for _ in range(max_iter):
        if abs(fx) <= ftol:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= xtol + rtol * max(abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        # Reject the Newton step when it leaves the bracket or when it fails
        # to shrink the previous step fast enough (flat-tail creep); bisect.
        newton_ok = (
            dfx > 0.0
            and ((x - hi) * dfx - fx) * ((x - lo) * dfx - fx) < 0.0
            and abs(2.0 * fx) <= abs(step_old * dfx)
        )
        step_old = step
        if newton_ok:
            step = fx / dfx
            x -= step
            if abs(step) <= xtol + rtol * abs(x):
                return x
        else:
            step = 0.5 * (hi - lo)
            x = lo + step
        if not (lo < x < hi):
            # rounding pushed the iterate onto the boundary: bisect instead,
            # and stop only if even the midpoint cannot separate the bracket
            x = 0.5 * (lo + hi)
            if not (lo < x < hi):
                return x
        fx, dfx = yield x
    raise NumericError(f"root finder did not converge on [{lo}, {hi}]")


def newton_bracketed(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    x0: float | None = None,
    xtol: float = 1e-14,
    rtol: float = 0.0,
    ftol: float = 0.0,
    max_iter: int = 200,
) -> float:
    """Safeguarded Newton iteration for an increasing function on [lo, hi].

    Newton steps that leave the current bracket (or have a vanishing
    derivative, or fail to shrink the previous step fast enough) are
    replaced with bisection steps, so convergence is guaranteed.  Stops when
    the residual magnitude drops to ``ftol``, when a Newton step is at most
    ``xtol + rtol * |x|``, when the bracket width drops to
    ``xtol + rtol * max(|lo|, |hi|)``, or when the bracket can no longer be
    split in floating point; raises NumericError when the bracket is
    invalid or the iteration budget runs out first.
    """
    steps = _newton_steps(lo, hi, f(lo), f(hi), x0, xtol, rtol, ftol, max_iter)
    reply = None
    while True:
        try:
            x = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = (f(x), fprime(x))


def newton_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    fprime: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    xtol: float,
) -> np.ndarray:
    """``newton_bracketed`` on a row of brackets [lo[i], hi[i]], started at
    their midpoints, with its default tolerances apart from ``xtol``.

    ``f(x, lanes)`` and ``fprime(x, lanes)`` return the residual and slope
    of lane ``lanes[k]`` at ``x[k]``.  Each round evaluates them once, on
    the lanes still iterating; each lane follows the same steps, and returns
    the same root, as its own ``newton_bracketed`` call.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    every = np.arange(lo.size)
    ends = zip(lo.tolist(), hi.tolist(), f(lo, every).tolist(), f(hi, every).tolist())
    lanes = every.tolist()
    steps = [
        _newton_steps(*end, x0=None, xtol=xtol, rtol=0.0, ftol=0.0, max_iter=200) for end in ends
    ]
    replies = [None] * lo.size
    roots = np.empty(lo.size)
    while True:
        live, live_steps, xs = [], [], []
        for lane, lane_steps, reply in zip(lanes, steps, replies):
            try:
                xs.append(lane_steps.send(reply))
            except StopIteration as stop:
                roots[lane] = stop.value
                continue
            live.append(lane)
            live_steps.append(lane_steps)
        if not live:
            return roots
        lanes, steps = live, live_steps
        x, idx = np.array(xs), np.array(lanes)
        replies = zip(f(x, idx).tolist(), fprime(x, idx).tolist())
