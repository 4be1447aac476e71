"""The package's one scalar root finder: bracketed Newton.

``newton_bracketed`` requires a sign-changing bracket and never leaves it:
it takes Newton steps when they stay inside the current bracket and bisects
otherwise, so it converges for any continuous increasing residual.  Every
root in the package (the equipoint, sigma_{s,t} and the inverse incomplete
beta) is found with it.
"""

from __future__ import annotations

from typing import Callable

from .errors import NumericError


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
    the residual magnitude drops to ``ftol``, when the bracket width drops
    to ``xtol + rtol * max(|lo|, |hi|)``, or when the bracket can no longer
    be split in floating point; raises NumericError when the bracket is
    invalid or the iteration budget runs out first.
    """
    flo, fhi = f(lo), f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise NumericError(f"not a sign-changing bracket: f({lo})={flo}, f({hi})={fhi}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    x = 0.5 * (lo + hi) if x0 is None else min(max(x0, lo), hi)
    step_old = hi - lo
    step = step_old
    fx = f(x)
    dfx = fprime(x)
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
        else:
            step = 0.5 * (hi - lo)
            x = lo + step
        if not (lo < x < hi):
            # rounding pushed the iterate onto the boundary: bisect instead,
            # and stop only if even the midpoint cannot separate the bracket
            x = 0.5 * (lo + hi)
            if not (lo < x < hi):
                return x
        fx = f(x)
        dfx = fprime(x)
    raise NumericError(f"root finder did not converge on [{lo}, {hi}]")
