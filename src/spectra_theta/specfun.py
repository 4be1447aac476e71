"""Special functions: log-gamma, log-beta, the regularized incomplete beta,
its density and its inverse, to double precision.

One point function, ``_ibeta_point``, yields I_p and the density of one
(a, b, p) triple from one set of logs and ln B; ``reg_inc_beta`` and
``beta_pdf`` are each one call of it.  The row kernel (``_ln_beta_row``,
``_ibeta_row``, ``_ibeta_inv_row``) evaluates a numpy row of triples for
every sweep and root, with the point function's bits in every lane: the same
operation order, ``math``'s transcendental functions mapped per lane, and
one modified-Lentz loop over the lanes still iterating.  ``_ibeta_row``
alone picks the path, mapping the point function over rows shorter than
``_ROW_MIN_LANES``, where it is cheaper.  The loop's numpy calls per
iteration do not grow with the row, so independent rows of one step share
one ``_ibeta_row`` call (``_ibeta_rows``).  The inverse is a bracketed-Newton
row (``rootfind.newton_rows``) whose residual call also returns its slope.
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

from .errors import NumericError, _require_real
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
        object.__setattr__(self, "a", _require_real("a", self.a, 0.0, above=True))
        object.__setattr__(self, "b", _require_real("b", self.b, 0.0, above=True))
        object.__setattr__(self, "p", _require_real("p", self.p, 0.0, 1.0))


def ln_gamma(x: float) -> float:
    """Natural log of the Euler gamma function for x > 0 (``math.lgamma``)."""
    return math.lgamma(_require_real("x", x, 0.0, above=True))


def ln_beta(a: float, b: float) -> float:
    """log B(a, b) for finite positive shapes, memoized behind the check (an
    array, which the memo cannot hash, is refused first): a root finder on a
    short row evaluates the point kernel dozens of times per shape pair."""
    return _ln_beta(_require_real("a", a, 0.0, above=True), _require_real("b", b, 0.0, above=True))


@lru_cache(maxsize=8192)
def _ln_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


ln_beta.cache_info = _ln_beta.cache_info  # the memo's traffic, which perfbench reads


_CF_MAX_ITER = 500
_CF_EPS = 1e-16
_CF_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated by the modified
    Lentz algorithm.  Valid (fast-converging) for x < (a+1)/(a+b+2).
    Unlike ``_beta_cf_row`` it writes out the even and the odd term: an inner
    loop over the two costs a scalar lane about a fifth more time."""
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


def _exp(x: float) -> float:
    """``math.exp``, or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:  # the density at a < 1 and p deep in the subnormals
        return math.inf


def _ibeta_point(a: float, b: float, p: float) -> tuple[float, float]:
    """I_p(a, b) and its density at p, from one log p, log(1-p) and ln B."""
    if p <= 0.0:
        return 0.0, 0.0
    if p >= 1.0:
        return 1.0, 0.0
    ln_p, ln_q, ln_b = math.log(p), math.log1p(-p), _ln_beta(a, b)
    ln_front = a * ln_p + b * ln_q - ln_b
    density = _exp((a - 1.0) * ln_p + (b - 1.0) * ln_q - ln_b)
    # Symmetry switch keeps the continued fraction in its fast region.
    if p < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _beta_cf(a, b, p) / a, density
    return 1.0 - math.exp(ln_front) * _beta_cf(b, a, 1.0 - p) / b, density


def reg_inc_beta(a: float, b: float, p: float) -> float:
    """Regularized incomplete beta function I_p(a, b).

    I_p(a, b) = B_p(a, b) / B(a, b) where B_p(a, b) is the integral of
    x^(a-1) (1-x)^(b-1) over [0, p].  Monotone nondecreasing in p; exact at
    the endpoints.
    """
    args = BetaArgs(a, b, p)
    # Clip the last-ulp spill so callers can rely on the codomain.
    return min(max(_ibeta_point(args.a, args.b, args.p)[0], 0.0), 1.0)


def beta_pdf(a: float, b: float, p: float) -> float:
    """Density p^(a-1) (1-p)^(b-1) / B(a, b); 0 at both endpoints (the
    one-sided limit for a, b > 1; the root finders need only a value >= 0)."""
    args = BetaArgs(a, b, p)
    return _ibeta_point(args.a, args.b, args.p)[1]


def reg_inc_beta_inv(y: float, a: float, b: float) -> float:
    """Inverse of ``reg_inc_beta`` in p: returns p with I_p(a, b) = y.

    Safeguarded Newton iteration bracketed by bisection; the derivative is
    the beta density.  Endpoints are returned exactly for y = 0 and y = 1.
    A one-lane ``_ibeta_inv_row``.
    """
    args = BetaArgs(a, b, 0.5)  # validates the shapes
    return float(_ibeta_inv_row(_require_real("y", y, 0.0, 1.0), args.a, args.b)[0])


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
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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
            # one array at a time, so each old array is freed as its successor is built
            lane = lane[keep]
            a = a[keep]
            b = b[keep]
            x = x[keep]
            qab = qab[keep]
            qap = qap[keep]
            qam = qam[keep]
            c = c[keep]
            d = d[keep]
            h = h[keep]
    raise _cf_error(float(a[0]), float(b[0]), float(x[0]))


def _ibeta_row(a, b, p) -> tuple[np.ndarray, np.ndarray]:
    """``_ibeta_point`` on a row of (a, b, p) triples (scalars broadcast),
    mapped below ``_ROW_MIN_LANES`` lanes, else one numpy loop."""
    a, b, p = _lanes(a, b, p)
    if a.size < _ROW_MIN_LANES:
        points = map(_ibeta_point, a.tolist(), b.tolist(), p.tolist())
        value, density = tuple(zip(*points)) or ((), ())  # an empty row unzips to ()
        return np.array(value), np.array(density)
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
    density[inner] = _map(_exp, (a - 1.0) * ln_p + (b - 1.0) * ln_q - ln_b)
    return value, density


def _ibeta_rows(*triples) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_ibeta_row`` of each (a, b, p) triple (scalars broadcast per
    triple), from one ``_ibeta_row`` call over the rows stacked end to end;
    lane exactness gives every lane the bits of its own row's call."""
    rows = [_lanes(*triple) for triple in triples]
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
