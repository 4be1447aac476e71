"""Equipoints, medians and means of the beta distribution, the analytic
bounds relating them, and the one-step-monotone cumulative functions.

The equipoint of shapes (s, t) is the unique e in [0, 1] with

    I_e(s, t+1) + I_e(s+1, t) = 1,

a central-tendency point sitting between (s+1)/(s+t+2) and the mean s/(s+t).
For integer shapes it coincides with the point where a Bin(s+t, p) variable
is as likely to land at >= s as at <= s.

Every root is solved on rows (``rootfind.newton_rows`` over the row kernel
of ``specfun``, one kernel pass per Newton round for the residual and its
slope): each sweep builds its grid and solves it as one row
(``bounds_sweeps`` runs four sweeps on one median row and one equipoint row
over their distinct shapes), and ``equipoint``, ``median``, ``phi`` and
``phi_hat`` are one-lane calls of the same code, so a shape gives the same
bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, _require_int, _require_real
from .rootfind import newton_rows
from .specfun import _ibeta_inv_row, _ibeta_row, reg_inc_beta


@dataclass(frozen=True)
class BetaShape:
    """Pair of beta shape parameters; t_frak = 0 is allowed only so the
    degenerate equipoint convention e_{s,0} = 1 has a carrier."""

    s_frak: float
    t_frak: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_frak", _require_real("s_frak", self.s_frak, 0.0, above=True))
        object.__setattr__(self, "t_frak", _require_real("t_frak", self.t_frak, 0.0))

    @property
    def d_frak(self) -> float:
        return self.s_frak + self.t_frak

    @property
    def mean(self) -> float:
        return self.s_frak / self.d_frak


def _equipoint_residual(s, t, x) -> tuple[np.ndarray, np.ndarray]:
    """I_x(s, t+1) + I_x(s+1, t) - 1 per lane, strictly increasing in x,
    exactly -1 at x = 0 and +1 at x = 1; and its x-derivative
    (s + t) beta_pdf(s, t, x) ((1-x)/t + x/s).

    Evaluated through the contiguous-shape rearrangement
    2 I_x(s, t) + (s - t) x (1-x) beta_pdf(s, t, x) / (s t) - 1, so one
    row-kernel pass at (s, t, x) gives the residual and the slope.  The test
    suite checks the returned root against the two-call defining sum
    directly.
    """
    value, pdf = _ibeta_row(s, t, x)
    correction = (s - t) * x * (1.0 - x) * pdf / (s * t)
    return 2.0 * value + correction - 1.0, (s + t) * pdf * ((1.0 - x) / t + x / s)


def _equipoint_rows(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The equipoint of every lane (s, t) with t > 0, one Newton row."""
    d = s + t
    return newton_rows(
        lambda x, lanes: _equipoint_residual(s[lanes], t[lanes], x),
        0.0,
        1.0,
        x0=0.5 * ((s + 1.0) / (d + 2.0) + s / d),
        xtol=0.0,
        rtol=4e-16,
    )


def equipoints(shapes: list[BetaShape]) -> list[float]:
    """The equipoints of the shape pairs, solved together as one row.

    Each is solved by bracketed Newton on [0, 1], where the residual runs
    from -1 to +1, started midway between the analytic bounds (s+1)/(d+2)
    and s/d.  The slope is the exact derivative
    d beta_pdf(s, t, x) ((1-x)/t + x/s) of the defining sum, and the
    iteration stops when a Newton step, or the bracket, is a few ulps wide.
    The residual is strictly increasing, so convergence is guaranteed for
    every admissible shape.  The degenerate case t = 0 gives 1 by
    convention (the residual is I_e(s, 1) - 1, whose root is 1).
    """
    s, t = np.array([(sh.s_frak, sh.t_frak) for sh in shapes], dtype=float).reshape(-1, 2).T
    e = np.ones(s.size)
    live = t > 0.0
    e[live] = _equipoint_rows(s[live], t[live])
    return e.tolist()


def equipoint(shape: BetaShape) -> float:
    """The equipoint e of the shape pair; a one-lane ``equipoints``.

    The accuracy is absolute: within 2e-14 on shapes up to 200, which the
    test suite checks against a 40-digit reference, on a grid and on
    half-integer shapes of the Simmons sweep (the worst seen in 6000 of
    those is 1.04e-14, at (125, 53.5)).  The residual cancels to about
    1e-16 in absolute terms, so a root very close to 0 keeps few relative
    digits.  At shapes (1e-6, 1e6) the root 1.0854e-11 comes back 1.5e-4 off
    in relative terms, at (1e-8, 1e8) the root 1.5e-15 about 20% off.
    """
    return equipoints([shape])[0]


def medians(shapes: list[BetaShape]) -> list[float]:
    """The medians m of Beta(s, t), the roots of I_m(s, t) = 1/2, solved
    together as one row of the inverse incomplete beta."""
    s, t = np.array([(sh.s_frak, sh.t_frak) for sh in shapes], dtype=float).reshape(-1, 2).T
    if (t == 0.0).any():
        raise DomainError("median requires t_frak > 0")
    return _ibeta_inv_row(0.5, s, t).tolist()


def median(shape: BetaShape) -> float:
    """Median m of Beta(s, t); a one-lane ``medians``."""
    return medians([shape])[0]


def median_bounds(shape: BetaShape) -> tuple[float, float]:
    """Mean lower bound and the sharpened upper bound on the median.

    Valid for 1 <= t <= s with s + t >= 3; returns
    (s/(s+t), s/(s+t) + (s-t)/(s+t)^2).  The sandwich
    lower <= median <= upper is asserted by the test suite, not here.
    """
    s, t = shape.s_frak, shape.t_frak
    if not (1.0 <= t <= s and s + t >= 3.0):
        raise DomainError(f"median_bounds requires 1 <= t <= s and s+t >= 3, got ({s}, {t})")
    mu = s / (s + t)
    return mu, mu + (s - t) / (s + t) ** 2


def median_old_upper_bound(shape: BetaShape) -> float:
    """The classical mode upper bound (s-1)/(s+t-2), for comparison tables."""
    s, t = shape.s_frak, shape.t_frak
    if s + t <= 2.0:
        raise DomainError("old upper bound requires s + t > 2")
    return (s - 1.0) / (s + t - 2.0)


def equipoint_bounds(shape: BetaShape) -> tuple[float, float]:
    """Analytic bounds ((s+1)/(s+t+2), s/(s+t)) for the equipoint.

    The lower bound holds for all real 0 < t <= s; the upper bound is proven
    only for half-integer shapes (and conjectured in general), which is why
    the test suite restricts the upper-bound assertion to that grid.
    """
    s, t = shape.s_frak, shape.t_frak
    if not (0.0 < t <= s):
        raise DomainError(f"equipoint_bounds requires 0 < t <= s, got ({s}, {t})")
    return (s + 1.0) / (s + t + 2.0), s / (s + t)


def phi_functions(s_frak: float, d_frak: float) -> tuple[float, float]:
    """The cumulative pair (Phi, Phi_hat) at s for fixed total d.

    Phi(s) evaluates the Beta(s, d-s+1) CDF at the equipoint of (s, d-s);
    Phi_hat(s) evaluates it at the mean s/d.  Both are one-step monotone in
    s on d/2 <= s < d-1 (Phi on the half-integer grid).
    """
    return phi(s_frak, d_frak), phi_hat(s_frak, d_frak)


def phi(s_frak: float, d_frak: float) -> float:
    """Just the equipoint-evaluated cumulative Phi(s) of phi_functions."""
    s = _require_real("s_frak", s_frak, 0.0, above=True)
    d = _require_real("d_frak", d_frak, s, above=True)
    return _phi_rows(np.array([s]), np.array([d])).tolist()[0]


def phi_hat(s_frak: float, d_frak: float) -> float:
    """Just the mean-evaluated cumulative Phi_hat(s) of phi_functions,
    skipping the equipoint solve."""
    s = _require_real("s_frak", s_frak, 0.0, above=True)
    d = _require_real("d_frak", d_frak, s, above=True)
    return _phi_hat_rows(np.array([s]), np.array([d])).tolist()[0]


def _phi_rows(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Phi on rows of 0 < s < d: ``reg_inc_beta`` at the equipoint, clipped
    to [0, 1] as ``reg_inc_beta`` clips."""
    t = d - s
    return np.clip(_ibeta_row(s, t + 1.0, _equipoint_rows(s, t))[0], 0.0, 1.0)


def _phi_hat_rows(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Phi_hat on rows of 0 < s < d, clipped as ``reg_inc_beta`` clips."""
    return np.clip(_ibeta_row(s, d - s + 1.0, s / d)[0], 0.0, 1.0)


def binom_tail(p: float, s: int, d: int) -> float:
    """P(S >= s) for S ~ Bin(d, p), via I_p(s, d-s+1)."""
    s = _require_int("s", s, 0)
    d = _require_int("d", d, max(s, 1))
    p = _require_real("p", p, 0.0, 1.0)
    if s == 0:
        return 1.0
    return reg_inc_beta(float(s), float(d - s + 1), p)


# ---------------------------------------------------------------------------
# Verification sweeps.  Each returns a list of violation records (dicts) and
# never raises on a violation; the CLI and test suite decide severity.
# ---------------------------------------------------------------------------


def simmons_sweep(d_max: int = 400) -> list[dict]:
    """Check e_{s/2,t/2} <= s/d and (s'+1)/(d'+2) <= e over all integer
    splits d/2 <= s < d for d <= d_max (s' = s/2, d' = d/2)."""
    d_max = _require_int("d_max", d_max, 2)
    splits = [(s, d - s) for d in range(2, d_max + 1) for s in range((d + 1) // 2, d)]
    shapes = [BetaShape(s / 2.0, t / 2.0) for s, t in splits]
    violations = []
    for (s, t), shape, e in zip(splits, shapes, equipoints(shapes)):
        lower, upper = equipoint_bounds(shape)
        if e > upper + 1e-12:
            violations.append({"check": "simmons_upper", "s": s, "t": t, "e": e, "bound": upper})
        if e < lower - 1e-12:
            violations.append({"check": "equipoint_lower", "s": s, "t": t, "e": e, "bound": lower})
    return violations


def _grid(first: float, last: float, step: float) -> np.ndarray:
    """The sweep-grid axis first + k step, k = 0, 1, ..., up to ``last``
    (within 1e-9 of a step).  Refused with DomainError when ``last`` is not
    finite (a sweep to NaN checks nothing, one to infinity never ends), when
    ``step`` is not finite and positive or so small that the number of
    steps overflows, and when the axis is empty: a sweep over an empty grid
    checks nothing."""
    last = _require_real("sweep bound", last)
    step = _require_real("grid step", step, 0.0, above=True)
    steps = (last - first) / step
    if math.isinf(steps):
        raise DomainError(f"grid step {step} is too small for the sweep bound {last}")
    count = math.floor(steps + 1e-9) + 1
    if count < 1:
        raise DomainError(f"the sweep grid {first} + k {step} has no point up to {last}")
    return first + step * np.arange(count)


def _triangle(first: float, s_max: float, step: float) -> list[tuple[float, float]]:
    """The shapes (s, t) with t <= s on the grid ``_grid(first, s_max, step)``."""
    axis = _grid(first, s_max, step).tolist()
    return [(s, t) for i, s in enumerate(axis) for t in axis[: i + 1]]


def _solve_once(rows, *groups) -> list[list[float]]:
    """``rows(s, t)`` at the shapes (s, t) of every group, solved as one row
    over the distinct shapes (a lane gets the same bits in any row)."""
    st = np.concatenate([np.asarray(group, dtype=float).reshape(-1, 2) for group in groups])
    distinct, where = np.unique(st, axis=0, return_inverse=True)
    values = rows(*distinct.T)[where.ravel()]
    starts = [0, *accumulate(len(group) for group in groups)]
    return [values[i:j].tolist() for i, j in zip(starts, starts[1:])]


def _bounds_checks(median_shapes: list[tuple[float, float]],
                   ordering_shapes: list[tuple[float, float]],
                   lower_shapes: list[tuple[float, float]],
                   conjecture_shapes: list[tuple[float, float]]) -> tuple[list[dict], list[dict]]:
    """The checks of ``median_bounds_sweep``, ``ordering_sweep`` and
    ``equipoint_lower_sweep`` on their shapes (violations, in that order),
    and the findings of ``simmons_conjecture_sweep`` on its shapes.  Every
    distinct median is solved once, in one inverse row, and every distinct
    equipoint once, in one equipoint row."""
    bounds = [median_bounds(BetaShape(s, t)) for s, t in median_shapes]
    # checked before the 0 < t <= s filter, which would drop a NaN shape unseen
    shapes = [(_require_real("s", s), _require_real("t", t)) for s, t in ordering_shapes]
    kept = [(s, t) for s, t in shapes if 0.0 < t <= s]
    pairs = np.array(kept, dtype=float).reshape(-1, 2)
    ms, m_pairs, m_ups = _solve_once(
        lambda s, t: _ibeta_inv_row(0.5, s, t), median_shapes, pairs, pairs + 1.0
    )
    e_pairs, e_lower, e_conjecture = _solve_once(
        _equipoint_rows, pairs, lower_shapes, conjecture_shapes
    )
    violations = []
    for (s, t), (lower, upper), m in zip(median_shapes, bounds, ms):
        if not (lower - 1e-12 <= m <= upper + 1e-12):
            violations.append({"check": "median_bounds", "s": s, "t": t, "m": m,
                               "lower": lower, "upper": upper})
    for (s, t), e, m, m_up in zip(kept, e_pairs, m_pairs, m_ups):
        if e > m + 1e-12:
            violations.append({"check": "e_le_m", "s": s, "t": t, "e": e, "m": m})
        if t < s and m_up > e + 1e-12:
            violations.append({"check": "m_up_le_e", "s": s, "t": t, "e": e, "m_up": m_up})
    for (s, t), e in zip(lower_shapes, e_lower):
        lower = (s + 1.0) / (s + t + 2.0)
        if e < lower - 1e-12:
            violations.append({"check": "equipoint_lower", "s": s, "t": t, "e": e, "bound": lower})
    findings = []
    for (s, t), e in zip(conjecture_shapes, e_conjecture):
        upper = s / (s + t)
        if e > upper + 1e-12:
            findings.append({"check": "simmons_conjecture", "s": s, "t": t, "e": e, "bound": upper})
    return violations, findings


def equipoint_lower_sweep(s_max: float = 100.0, step: float = 0.5) -> list[dict]:
    """Real-parameter lower bound (s+1)/(s+t+2) <= e for 1 <= t <= s <= s_max."""
    return _bounds_checks([], [], _triangle(1.0, s_max, step), [])[0]


def simmons_conjecture_sweep(s_max: float = 30.0, step: float = 0.5) -> list[dict]:
    """Report-only sweep of the conjectured real-parameter upper bound
    e_{s,t} <= s/(s+t); findings are informational, never asserted."""
    return _bounds_checks([], [], [], _triangle(0.5, s_max, step))[1]


def median_bounds_sweep(shapes: list[tuple[float, float]]) -> list[dict]:
    """Sandwich lower <= median <= upper on the given (s, t) shapes."""
    return _bounds_checks(shapes, [], [], [])[0]


def ordering_sweep(shapes: list[tuple[float, float]]) -> list[dict]:
    """Chain e_{s,t} <= m_{s,t} (0 < t <= s) and m_{s+1,t+1} <= e_{s,t}
    (0 < t < s) over the given shapes."""
    return _bounds_checks([], shapes, [], [])[0]


def bounds_sweeps(shapes: list[tuple[float, float]], lower_s_max: float,
                  conjecture_s_max: float, step: float) -> tuple[list[dict], list[dict]]:
    """``median_bounds_sweep(shapes)``, ``ordering_sweep(shapes)`` and
    ``equipoint_lower_sweep(lower_s_max, step)``: their violations, in that
    order; and the findings of ``simmons_conjecture_sweep(conjecture_s_max,
    step)``.  The same results as the four calls, with each median and
    equipoint the four share solved once."""
    return _bounds_checks(shapes, shapes, _triangle(1.0, lower_s_max, step),
                          _triangle(0.5, conjecture_s_max, step))


def phi_hat_monotone_sweep(d_max: float = 100.0, step: float = 0.25) -> list[dict]:
    """One-step monotonicity of Phi_hat on the real grid d/2 <= s < d-1."""
    grid = []  # (s, d) and (s + 1, d), interleaved
    step = _require_real("grid step", step, 0.0, above=True)  # checked before 2 + step uses it
    for i, d in enumerate(_grid(2.0 + step, d_max, step).tolist()):
        # d = 2 + (i + 1) step: s = d/2 + j step is below d - 1 for j <= i // 2
        for j in range(i // 2 + 1):
            s = d / 2.0 + j * step
            grid += [(s, d), (s + 1.0, d)]
    phis = _phi_hat_rows(*np.array(grid, dtype=float).reshape(-1, 2).T).tolist()
    violations = []
    for (s, d), ph0, ph1 in zip(grid[::2], phis[::2], phis[1::2]):
        if ph0 > ph1 + 1e-12:
            violations.append({"check": "phi_hat_monotone", "s": s, "d": d,
                               "phi_hat_s": ph0, "phi_hat_s1": ph1})
    return violations


def phi_monotone_sweep(d_max: float = 100.0) -> list[dict]:
    """One-step monotonicity of Phi for half-integer s, d on d/2 <= s < d-1.

    Each Phi is computed once, all of them as one row: s + 1 is two
    half-steps along the grid while d stays, and half-integers are exact in
    float.
    """
    grid = []
    for d in _grid(2.5, d_max, 0.5).tolist():
        # half-integers from the smallest one >= d/2 up to d - 1/2
        grid += [(s / 2.0, d) for s in range(math.ceil(d), int(2.0 * d))]
    phis = _phi_rows(*np.array(grid, dtype=float).reshape(-1, 2).T).tolist()
    violations = []
    for (s, d), (_, d1), p0, p1 in zip(grid, grid[2:], phis, phis[2:]):
        if d1 == d and p0 > p1 + 1e-12:
            violations.append({"check": "phi_monotone", "s": s, "d": d,
                               "phi_s": p0, "phi_s1": p1})
    return violations
