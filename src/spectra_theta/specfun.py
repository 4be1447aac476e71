"""Special functions: log-gamma, log-beta, the regularized incomplete beta,
its density and its inverse, to double precision.

Two kernels compute the same numbers.  The point kernel (``ln_beta``,
``_reg_inc_beta``, ``beta_pdf``) is plain scalar code.  The row kernel
(``_ln_beta_row``, ``_ibeta_row``, ``_ibeta_inv_row``) evaluates a whole
numpy row of argument triples at once, for every sweep and root of the
package; one ``_ibeta_row`` pass yields both I_p and the density, sharing
the logs and ln B.  It matches the point kernel bit for bit, lane by lane:
the same operation order, the transcendental functions of ``math`` mapped
per lane, and one modified-Lentz continued fraction advanced for every lane
still iterating.  That loop costs a fixed number of numpy calls per
iteration whatever the row's length, so a caller with several independent
rows at the same step stacks them into one pass (``_ibeta_rows``); lane
exactness gives every lane the bits of its own row's pass.  Rows, stacked
or not, shorter than ``_ROW_MIN_LANES`` go lane by lane through the point
kernel, which is cheaper there.  The inverse is one
bracketed-Newton row (``rootfind.newton_rows``) over the row kernel, whose
residual call also returns its slope.
Accuracy targets (absolute):

* ``ln_gamma``          max(1e-13, 5e-15 |ln Gamma(x)|) over [1e-3, 1e6]
* ``reg_inc_beta``      1e-12
* ``reg_inc_beta_inv``  residual |I_p(a,b) - y| <= 1e-11
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DomainError, NumericError
from .rootfind import newton_rows


@dataclass(frozen=True)
class BetaArgs:
    """Validated argument triple for the regularized incomplete beta function.

    Shape parameters must be strictly positive and finite; the evaluation
    point must lie in [0, 1].  Violations raise DomainError from the
    constructor, so holding a BetaArgs is proof the triple is usable.
    """

    a: float
    b: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise DomainError(f"shape parameter a must be finite and > 0, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise DomainError(f"shape parameter b must be finite and > 0, got {self.b}")
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"evaluation point p must lie in [0, 1], got {self.p}")


def ln_gamma(x: float) -> float:
    """Natural log of the Euler gamma function for x > 0 (``math.lgamma``)."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


@lru_cache(maxsize=8192)
def ln_beta(a: float, b: float) -> float:
    """log B(a, b) for positive shapes.

    Memoized: a root finder on a short row evaluates the point kernel
    dozens of times per shape pair, and the three log-gamma calls dominate.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"ln_beta requires positive shapes, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


_CF_MAX_ITER = 500
_CF_EPS = 1e-16
_CF_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated by the modified
    Lentz algorithm.  Valid (fast-converging) for x < (a+1)/(a+b+2)."""
    max_iter, eps, tiny = _CF_MAX_ITER, _CF_EPS, _CF_TINY
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise _cf_error(a, b, x)


def _cf_error(a: float, b: float, x: float) -> NumericError:
    return NumericError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, p={x}"
    )


def _reg_inc_beta(a: float, b: float, p: float) -> float:
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    ln_front = a * math.log(p) + b * math.log1p(-p) - ln_beta(a, b)
    # Symmetry switch keeps the continued fraction in its fast region.
    if p < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _beta_cf(a, b, p) / a
    return 1.0 - math.exp(ln_front) * _beta_cf(b, a, 1.0 - p) / b


def reg_inc_beta(a: float, b: float, p: float) -> float:
    """Regularized incomplete beta function I_p(a, b).

    I_p(a, b) = B_p(a, b) / B(a, b) where B_p(a, b) is the integral of
    x^(a-1) (1-x)^(b-1) over [0, p].  Monotone nondecreasing in p; exact at
    the endpoints.
    """
    args = BetaArgs(a, b, p)
    value = _reg_inc_beta(args.a, args.b, args.p)
    # Clip the last-ulp spill so callers can rely on the codomain.
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def beta_pdf(a: float, b: float, p: float) -> float:
    """Density p^(a-1) (1-p)^(b-1) / B(a, b); zero at endpoints it cannot reach."""
    if p <= 0.0 or p >= 1.0:
        # Correct one-sided limit for a, b >= 1; the root finders only
        # need a nonnegative value here.
        return 0.0
    return math.exp((a - 1.0) * math.log(p) + (b - 1.0) * math.log1p(-p) - ln_beta(a, b))


def reg_inc_beta_inv(y: float, a: float, b: float) -> float:
    """Inverse of ``reg_inc_beta`` in p: returns p with I_p(a, b) = y.

    Safeguarded Newton iteration bracketed by bisection; the derivative is
    the beta density.  Endpoints are returned exactly for y = 0 and y = 1.
    A one-lane ``_ibeta_inv_row``.
    """
    BetaArgs(a, b, 0.5)  # validates the shapes
    if not (0.0 <= y <= 1.0) or not math.isfinite(y):
        raise DomainError(f"target value must lie in [0, 1], got {y}")
    return float(_ibeta_inv_row(y, a, b)[0])


# ---------------------------------------------------------------------------
# Row kernel: the point kernel's arithmetic on numpy rows, lane by lane.
# ---------------------------------------------------------------------------

# Rows shorter than this go lane by lane through the point kernel: below it,
# numpy's per-operation overhead on the continued-fraction loop costs more
# than the scalar loops it replaces (crossover measured per call; CHANGES.md).
_ROW_MIN_LANES = 112


def _lanes(*args) -> list[np.ndarray]:
    """The arguments as equally long 1-d float rows (scalars broadcast)."""
    rows = [np.atleast_1d(np.asarray(v, dtype=float)) for v in args]
    shape = np.broadcast(*rows).shape
    return [row if row.shape == shape else np.broadcast_to(row, shape) for row in rows]


def _map(fn, *rows: np.ndarray) -> np.ndarray:
    """``fn`` applied lane by lane, so each lane gets the point kernel's bits
    (numpy's own log and exp may differ from ``math`` in the last ulp)."""
    return np.fromiter(map(fn, *(row.tolist() for row in rows)), dtype=float, count=rows[0].size)


def _ln_beta_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ln_beta`` on a row, its three log-gamma terms mapped and summed in
    its order (a row of many shapes would only churn the memo table)."""
    return _map(math.lgamma, a) + _map(math.lgamma, b) - _map(math.lgamma, a + b)


def _beta_cf_row(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_beta_cf`` on a row: one modified-Lentz loop for all lanes, each
    lane leaving it (and the row compacting) when its own update converges."""
    tiny = _CF_TINY
    out = np.empty(a.size)
    if not a.size:
        return out
    lane = np.arange(a.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones(a.size)
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if done.any():
            out[lane[done]] = h[done]
            keep = ~done
            if not keep.any():
                return out
            lane, a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (lane, a, b, x, qab, qap, qam, c, d, h)
            )
    raise _cf_error(float(a[0]), float(b[0]), float(x[0]))


def _ibeta_row(a, b, p) -> tuple[np.ndarray, np.ndarray]:
    """``_reg_inc_beta`` and ``beta_pdf`` on a row of (a, b, p) triples
    (scalars broadcast); a numpy-path row shares the logs and ln B."""
    a, b, p = _lanes(a, b, p)
    if a.size < _ROW_MIN_LANES:
        return _ibeta_points(a, b, p)
    value, density = np.where(p <= 0.0, 0.0, 1.0), np.zeros(a.size)
    inner = ~((p <= 0.0) | (p >= 1.0))  # the point kernel's endpoint tests
    a, b, p = a[inner], b[inner], p[inner]
    ln_p, ln_q, ln_b = _map(math.log, p), _map(math.log1p, -p), _ln_beta_row(a, b)
    ln_front = a * ln_p + b * ln_q - ln_b
    # the point kernel's symmetry switch, per lane
    swap = ~(p < (a + 1.0) / (a + b + 2.0))
    ca = np.where(swap, b, a)
    cf = _beta_cf_row(ca, np.where(swap, a, b), np.where(swap, 1.0 - p, p))
    head = _map(math.exp, ln_front) * cf / ca
    value[inner] = np.where(swap, 1.0 - head, head)
    density[inner] = _map(math.exp, (a - 1.0) * ln_p + (b - 1.0) * ln_q - ln_b)
    return value, density


def _ibeta_points(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_reg_inc_beta`` and ``beta_pdf`` lane by lane: the path of short rows."""
    return _map(_reg_inc_beta, a, b, p), _map(beta_pdf, a, b, p)


def _ibeta_rows(*triples) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_ibeta_row`` of each (a, b, p) triple (scalars broadcast per
    triple), from one pass over the rows stacked end to end: the row kernel
    is lane-exact, so every lane gets the bits of its own row's pass.  A
    stack shorter than ``_ROW_MIN_LANES`` goes lane by lane, unstacked."""
    rows = [_lanes(*triple) for triple in triples]
    if sum(row[0].size for row in rows) < _ROW_MIN_LANES:
        return [_ibeta_points(*row) for row in rows]
    value, density = _ibeta_row(*(np.concatenate(part) for part in zip(*rows)))
    starts = [0, *accumulate(row[0].size for row in rows)]
    return [(value[i:j], density[i:j]) for i, j in zip(starts, starts[1:])]


def _ibeta_inv_row(y, a, b) -> np.ndarray:
    """``reg_inc_beta_inv`` on a row of (y, a, b) triples (scalars
    broadcast), one Newton row on [0, 1] with the density as its slope."""
    y, a, b = _lanes(y, a, b)

    def residual(p, lanes):
        value, density = _ibeta_row(a[lanes], b[lanes], p)
        return value - y[lanes], density

    # Crude but robust start: mean of the distribution.  The residual stop
    # keeps |I_p - y| an order below the documented 1e-11; the relative
    # width stop handles roots deep in a tail, where no absolute x
    # tolerance is meaningful.  y = 0 and y = 1 stop at their bracket end.
    return newton_rows(residual, 0.0, 1.0, x0=a / (a + b), xtol=0.0, rtol=1e-14, ftol=1e-13)
