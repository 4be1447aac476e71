"""Special functions: log-gamma, log-beta, the regularized incomplete beta,
its density and its inverse, to double precision.

One row kernel, ``_ibeta_row``, computes I_p and its density for a numpy
row of (a, b, p) triples, with ln B passed in once per solve; ``reg_inc_beta``,
``beta_pdf`` and ``reg_inc_beta_inv`` are one-lane calls.  Its one fork is
the Lentz loop on the interior lanes: the scalar ``_beta_cf`` lane by lane
below ``_ROW_MIN_LANES`` of them, else ``_beta_cf_row``, one numpy loop with
``_beta_cf``'s bits whose calls per iteration do not grow with the row (so
independent rows share one call, ``_ibeta_rows``).  Both loops are the
modified Lentz method (*Numerical Recipes* §5.2) with its tests stated as
what binary64 can show: a lane stops where a step's factor is exactly 1
(the textbook |delta - 1| < 1e-16) and a denominator is guarded only where
it is exactly 0 (|v| < 1e-300); the comment at ``_CF_TINY`` says why the
two are the same tests.  The kernel's logs and exps are numpy's elementwise
ufuncs, so every lane has its one-lane call's bits (their last ulp depends
on the numpy build and the CPU).  The inverse is a
bracketed-Newton row (``rootfind.newton_rows``) whose residual also returns
its slope.  Accuracy targets (absolute):

* ``ln_gamma``          max(1e-13, 5e-15 |ln Gamma(x)|) over [1e-3, 1e6]
* ``reg_inc_beta``      1e-12, tested against scipy on shapes in [0.3, 200];
                        larger shapes lose digits near the mean, and near
                        1e6 it raises NumericError (README numerics notes)
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
    array, which the memo cannot hash, is refused first): short rows and
    scalar calls repeat their shape pairs."""
    return _ln_beta(_require_real("a", a, 0.0, above=True), _require_real("b", b, 0.0, above=True))


@lru_cache(maxsize=8192)
def _ln_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


ln_beta.cache_info = _ln_beta.cache_info  # the memo's traffic, which perfbench reads


_CF_MAX_ITER = 500
_CF_TINY = 1e-300
# Both Lentz loops test only what binary64 can show.  The stop, |delta - 1| <
# 1e-16, is delta == 1: for delta in [1/2, 2], delta - 1 is exact (Sterbenz),
# and the doubles nearest 1, 1 - 2**-53 and 1 + 2**-52, are more than 1e-16
# from it; outside [1/2, 2], |delta - 1| >= 1/2.  The guard, |v| < 1e-300 ->
# 1e-300, fires only on an exact zero: every guarded value is 1 - u for a
# double u, which by the same argument is 0 or at least 2**-53 in magnitude.


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated by the modified
    Lentz algorithm.  Valid (fast-converging) for x < (a+1)/(a+b+2).
    Unlike ``_beta_cf_row`` it writes out the even and the odd term: an inner
    loop over the two costs a scalar lane about a fifth more time."""
    max_iter, tiny = _CF_MAX_ITER, _CF_TINY
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if d == 0.0:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if d == 0.0:
            d = tiny
        c = 1.0 + aa / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if d == 0.0:
            d = tiny
        c = 1.0 + aa / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if delta == 1.0:
            return h
    raise _cf_error(a, b, x)


def _cf_error(a: float, b: float, x: float) -> NumericError:
    return NumericError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, p={x}"
    )


def reg_inc_beta(a: float, b: float, p: float) -> float:
    """Regularized incomplete beta function I_p(a, b).

    I_p(a, b) = B_p(a, b) / B(a, b) where B_p(a, b) is the integral of
    x^(a-1) (1-x)^(b-1) over [0, p].  Monotone nondecreasing in p; exact at
    the endpoints.
    """
    args = BetaArgs(a, b, p)
    # Clip the last-ulp spill so callers can rely on the codomain.
    return min(max(float(_ibeta_row(args.a, args.b, args.p)[0][0]), 0.0), 1.0)


def beta_pdf(a: float, b: float, p: float) -> float:
    """Density p^(a-1) (1-p)^(b-1) / B(a, b); 0 at both endpoints (the
    one-sided limit for a, b > 1; the root finders need only a value >= 0)."""
    args = BetaArgs(a, b, p)
    return float(_ibeta_row(args.a, args.b, args.p)[1][0])


def reg_inc_beta_inv(y: float, a: float, b: float) -> float:
    """Inverse of ``reg_inc_beta`` in p: returns p with I_p(a, b) = y.

    Safeguarded Newton iteration bracketed by bisection; the derivative is
    the beta density.  Endpoints are returned exactly for y = 0 and y = 1.
    A one-lane ``_ibeta_inv_row``.
    """
    args = BetaArgs(a, b, 0.5)  # validates the shapes
    return float(_ibeta_inv_row(_require_real("y", y, 0.0, 1.0), args.a, args.b)[0])


# ---------------------------------------------------------------------------
# Row kernel: I_p and its density on numpy rows, lane by lane.
# ---------------------------------------------------------------------------

# Fewer interior lanes than this run the scalar Lentz loop: below it, numpy's
# per-operation overhead on the continued-fraction loop costs more than the
# scalar loops it replaces (per-lane costs of both: scripts/row_costs.py).
_ROW_MIN_LANES = 112
# The interior lanes' constant operands as 0-d arrays: numpy converts a Python float
# operand on every call, a tenth of a one-lane call's time; the bits are the same.
_ONE, _TWO = np.array(1.0), np.array(2.0)


def _lanes(*args) -> list[np.ndarray]:
    """The arguments as equally long 1-d float rows (scalars broadcast)."""
    rows = [np.atleast_1d(np.asarray(v, dtype=float)) for v in args]
    shape = np.broadcast(*rows).shape
    return [row if row.shape == shape else np.broadcast_to(row, shape) for row in rows]


def _map(fn, *rows: np.ndarray) -> np.ndarray:
    """``fn`` applied lane by lane: the scalar continued fraction on short
    rows, and ``math.lgamma``, which numpy lacks."""
    return np.fromiter(map(fn, *(row.tolist() for row in rows)), dtype=float, count=rows[0].size)


def _ln_beta_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ln_beta`` on a row: one ``math.lgamma`` per distinct value among the
    a and b lanes, and one per distinct a + b, summed in ``ln_beta``'s
    order.  A row of splits of d repeats its shapes (b of one lane is a of
    another, and a + b is d/2 + 1 in every lane); it does not go through
    the memo, which a row of many shapes would only churn, unless it is
    shorter than ``_ROW_MIN_LANES``, where the sorts cost more."""
    if a.size < _ROW_MIN_LANES:
        return _map(_ln_beta, a, b)
    values, lanes = np.unique(np.concatenate([a, b]), return_inverse=True)
    ln_gamma_ab = _map(math.lgamma, values)[lanes]
    values, lanes = np.unique(a + b, return_inverse=True)
    ln_b = ln_gamma_ab[:a.size] + ln_gamma_ab[a.size:]
    ln_b -= _map(math.lgamma, values)[lanes]
    return ln_b


def _cf_guard(rows: np.ndarray, tiny: float) -> None:
    """``_beta_cf``'s ``if v == 0: v = tiny`` on rows, applied only if some
    lane needs it (the NaN of a finished lane counts as nonzero)."""
    if not rows.all():
        np.copyto(rows, tiny, where=rows == 0.0)


def _beta_cf_row(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_beta_cf`` on a row: one modified-Lentz loop for all lanes, each
    lane's value taken at the step where its own update converges.

    Every lane keeps ``_beta_cf``'s operations, written into a few row
    buffers, so that no step makes a temporary.  A step forms its even and
    its odd term as one negated pair, w = m (m - b) x / ... and
    (a + m) (a + b + m) x / ..., which share a + 2m, and each half step
    subtracts (1 - w d is 1 + (-w) d exactly).  The stop and the guard are
    ``_beta_cf``'s exact tests: a lane stops where its step's factor equals
    1 (one ``np.equal`` and one ``nonzero`` per step), and ``_cf_guard`` costs
    one reduction per half step.  A finished lane is set to
    NaN, which no later step turns into a value or a warning; once at most
    half the lanes are open, the open ones move to the front of the buffers,
    one row at a time."""
    tiny = _CF_TINY
    out = np.empty(a.size)
    # rows (0, a), (-b, a + b), (a - 1, a + 1), (d, c), x, h, lane (-1 once finished);
    # work rows: the step's two terms, scratch, and a + 2m, then each half step's update
    block = np.empty((11, a.size))
    block[0], block[7], block[8], block[10] = 0.0, 1.0, x, np.arange(a.size)
    block[1:6] = a, -b, a + b, a - 1.0, a + 1.0
    d = block[6]
    d[:] = 1.0 - block[3] * x / block[5]
    _cf_guard(d, tiny)
    np.divide(1.0, d, out=d)
    block[9] = d
    work = np.empty((5, a.size))
    flags = np.empty(a.size, dtype=bool)

    def lanes(width: int) -> tuple[np.ndarray, ...]:
        """The rows over the first ``width`` lanes: the pairs, x, h, lane and work."""
        return (*block[:8, :width].reshape(4, 2, width), *block[8:, :width],
                work[:2, :width], work[2:4, :width], work[4, :width])

    base, shifted, ends, dc, x, h, lane, w, scratch, step = lanes(a.size)
    d, c = dc
    open_lanes = a.size
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        np.add(base, m, out=w)
        np.add(shifted, m, out=scratch)
        np.multiply(w, scratch, out=w)
        np.multiply(w, x, out=w)
        np.add(base[1], m2, out=step)
        np.add(ends, m2, out=scratch)
        np.multiply(scratch, step, out=scratch)
        np.divide(w, scratch, out=w)
        for term in w:
            np.multiply(term, d, out=d)
            np.divide(term, c, out=c)
            np.subtract(1.0, dc, out=dc)
            _cf_guard(dc, tiny)
            np.divide(1.0, d, out=d)
            np.multiply(d, c, out=step)
            np.multiply(h, step, out=h)
        done = np.equal(step, 1.0, out=flags[:step.size]).nonzero()[0]
        if done.size:
            out[lane[done].astype(np.intp)] = h[done]
            dc[:, done] = np.nan
            lane[done] = -1.0
            open_lanes -= done.size
            if not open_lanes:
                return out
            if 2 * open_lanes <= lane.size:
                keep = np.flatnonzero(lane >= 0.0)
                for row in block:
                    row[:open_lanes] = row[keep]
                base, shifted, ends, dc, x, h, lane, w, scratch, step = lanes(open_lanes)
                d, c = dc
    i = np.argmax(lane >= 0.0)  # the first lane still open
    raise _cf_error(float(base[1, i]), -float(shifted[0, i]), float(x[i]))


def _ibeta_row(a, b, p, ln_b=None) -> tuple[np.ndarray, np.ndarray]:
    """I_p(a, b) and its density on a row of triples (scalars broadcast),
    with ``ln_b`` (a root's ``_ln_beta_row(a, b)``) as ln B if given; fewer
    than ``_ROW_MIN_LANES`` interior lanes run ``_beta_cf``, more ``_beta_cf_row``.
    A row with lanes at p = 0 or 1 sets their values and passes its interior
    lanes on as a row of their own; a row with none takes no mask or index."""
    a, b, p = _lanes(a, b, p)
    ends = (p <= 0.0) | (p >= 1.0)
    if np.count_nonzero(ends):  # the endpoints' values, and a row of the interior lanes alone
        value, density = np.where(p <= 0.0, 0.0, 1.0), np.zeros(a.size)
        inner = ~ends
        if np.count_nonzero(inner):
            value[inner], density[inner] = _ibeta_row(a[inner], b[inner], p[inner],
                                                      None if ln_b is None else ln_b[inner])
        return value, density
    if ln_b is None:
        ln_b = _ln_beta_row(a, b)
    ln_p, ln_q = np.log(p), np.log1p(-p)
    ln_front = a * ln_p + b * ln_q - ln_b
    # Symmetry switch keeps the continued fraction in its fast region.
    swap = ~(p < (a + _ONE) / (a + b + _TWO))
    ca, cb, x = np.where(swap, b, a), np.where(swap, a, b), np.where(swap, _ONE - p, p)
    cf = _map(_beta_cf, ca, cb, x) if a.size < _ROW_MIN_LANES else _beta_cf_row(ca, cb, x)
    head = np.exp(ln_front) * cf / ca
    with np.errstate(over="ignore"):  # inf at a < 1 and p deep in the subnormals
        density = np.exp((a - _ONE) * ln_p + (b - _ONE) * ln_q - ln_b)
    return np.where(swap, _ONE - head, head), density


def _ibeta_rows(*triples, ln_b=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_ibeta_row`` of each (a, b, p) triple (scalars broadcast per
    triple), from one ``_ibeta_row`` call over the rows stacked end to end,
    with ``ln_b`` their stacked ln B row if given; lane exactness gives
    every lane the bits of its own row's call."""
    rows = [_lanes(*triple) for triple in triples]
    value, density = _ibeta_row(*(np.concatenate(part) for part in zip(*rows)), ln_b)
    starts = [0, *accumulate(row[0].size for row in rows)]
    return [(value[i:j], density[i:j]) for i, j in zip(starts, starts[1:])]


def _ibeta_inv_row(y, a, b) -> np.ndarray:
    """``reg_inc_beta_inv`` on a row of (y, a, b) triples (scalars
    broadcast), one Newton row on [0, 1] with the density as its slope."""
    y, a, b = _lanes(y, a, b)
    ln_b = _ln_beta_row(a, b)

    def residual(p, lanes):
        value, density = _ibeta_row(a[lanes], b[lanes], p, ln_b[lanes])
        return value - y[lanes], density

    # Crude but robust start: mean of the distribution.  The residual stop
    # keeps |I_p - y| an order below the documented 1e-11, and takes the
    # place of the noise-floor stop, which near p = 1 with b below about
    # 0.1 would stop Newton's creep 2e-13 short.  The bracket and step stops
    # read one relative tolerance, 1e-14 |p|, as no absolute one suits a
    # root deep in a tail.  y = 0 and y = 1 stop at their bracket end.
    return newton_rows(residual, 0.0, 1.0, x0=a / (a + b), xtol=0.0, rtol=1e-14, ftol=1e-13)
