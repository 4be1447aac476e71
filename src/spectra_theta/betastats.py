"""Equipoints, medians and means of the beta distribution, the analytic
bounds relating them, and the one-step-monotone cumulative functions.

The equipoint of shapes (s, t) is the unique e in [0, 1] with

    I_e(s, t+1) + I_e(s+1, t) = 1,

a central-tendency point sitting between (s+1)/(s+t+2) and the mean s/(s+t).
For integer shapes it coincides with the point where a Bin(s+t, p) variable
is as likely to land at >= s as at <= s.

Every root is solved on rows (``rootfind.newton_rows`` over the row kernel
of ``specfun``, one kernel pass per Newton round for the residual and its
slope): the Phi and Phi_hat sweeps share ``_one_step_sweep``, which solves
its grid as one row over its distinct shapes, and ``equipoint``, ``median``,
``phi`` and ``phi_hat`` are one-lane calls of the same code, so a shape gives
the same bits either way.

The bound sweeps (``simmons_sweep`` and the four of ``bounds_sweeps``) are
one function, ``_bounds_checks``, which reads each verdict from the sign of
a residual (the sign rule, at ``_SWEEP_TOL``) and solves a root only for
the ordering chain, whose bound is the equipoint, and for the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .errors import DomainError, _require_int, _require_items, _require_real
from .rootfind import newton_rows
from .specfun import _ibeta_inv_row, _ibeta_row, _ibeta_rows, _ln_beta_row, reg_inc_beta


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


def _equipoint_residual(s, t, x, ln_b) -> tuple[np.ndarray, np.ndarray]:
    """I_x(s, t+1) + I_x(s+1, t) - 1 per lane, strictly increasing in x,
    exactly -1 at x = 0 and +1 at x = 1; and its x-derivative
    (s + t) beta_pdf(s, t, x) ((1-x)/t + x/s).

    Evaluated through the contiguous-shape rearrangement
    2 I_x(s, t) + (s - t) x (1-x) beta_pdf(s, t, x) / (s t) - 1, so one
    row-kernel pass at (s, t, x), with ``ln_b`` the row of ln B(s, t), gives
    the residual and the slope.  The test suite checks the returned root
    against the two-call defining sum directly.
    """
    value, pdf = _ibeta_row(s, t, x, ln_b)
    return _equipoint_excess(s, t, x, value, pdf), (s + t) * pdf * ((1.0 - x) / t + x / s)


def _equipoint_excess(s, t, x, value, pdf) -> np.ndarray:
    """The equipoint residual at x from the kernel's I_x(s, t) (``value``) and density."""
    return 2.0 * value + (s - t) * x * (1.0 - x) * pdf / (s * t) - 1.0


def _equipoint_band(s, t):
    """The equipoint band ((s+1)/(s+t+2), s/(s+t)) on floats or rows; see ``equipoint_bounds``."""
    return (s + 1.0) / (s + t + 2.0), s / (s + t)


def _equipoint_rows(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The equipoint of every lane (s, t) with t > 0, one Newton row."""
    lower, upper = _equipoint_band(s, t)
    ln_b = _ln_beta_row(s, t)
    return newton_rows(
        lambda x, lanes: _equipoint_residual(s[lanes], t[lanes], x, ln_b[lanes]),
        0.0,
        1.0,
        x0=0.5 * (lower + upper),
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
    shapes = _require_items("shapes", shapes, (BetaShape,))
    s, t = np.array([(sh.s_frak, sh.t_frak) for sh in shapes], dtype=float).reshape(-1, 2).T
    e = np.ones(s.size)
    live = t > 0.0
    e[live] = _equipoint_rows(s[live], t[live])
    return e.tolist()


def equipoint(shape: BetaShape) -> float:
    """The equipoint e of the shape pair; a one-lane ``equipoints``.

    The accuracy is absolute: within 2.2e-14 of a 40-digit reference on
    shapes up to 200, as the test suite checks on a grid, on half-integer
    shapes of the Simmons sweep and on the worst lane of a seeded row
    (README's numerics notes give the measured errors).  The residual
    cancels to about 1e-16 in absolute terms, so a root very close to 0
    keeps few relative digits.
    """
    return equipoints([shape])[0]


def medians(shapes: list[BetaShape]) -> list[float]:
    """The medians m of Beta(s, t), the roots of I_m(s, t) = 1/2, solved
    together as one row of the inverse incomplete beta."""
    shapes = _require_items("shapes", shapes, (BetaShape,))
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
    return _median_bounds(*_median_shape(shape.s_frak, shape.t_frak))


def _median_bounds(s, t, share=1.0):
    """The mean s/(s+t) and the mean plus ``share`` of the band's width
    (s-t)/(s+t)^2, on floats or rows, unchecked: ``median_bounds`` at the
    default share (a share of 1/2 halves the width exactly)."""
    mean = s / (s + t)
    return mean, mean + share * ((s - t) / ((s + t) * (s + t)))


def median_half_upper_bound(shape: BetaShape) -> float:
    """The mean plus half the width of ``median_bounds``, for comparison tables."""
    return _median_bounds(*_median_shape(shape.s_frak, shape.t_frak), 0.5)[1]


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
    return _equipoint_band(s, t)


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
    return reg_inc_beta(s, d - s + 1, p)  # BetaArgs refuses an int past the float range


# ---------------------------------------------------------------------------
# Verification sweeps.  Each returns a list of violation records (dicts) and
# never raises on a violation; the CLI and test suite decide severity.  None
# has defaults: the `verify` parser states them, once.
# ---------------------------------------------------------------------------


# The tolerance of every sweep's check.  The sign rule: the root of an increasing residual
# (``_residuals``) exceeds a bound b + _SWEEP_TOL exactly when the residual there is
# negative, and lies below b - _SWEEP_TOL exactly when it is positive.
_SWEEP_TOL = 1e-12


def _residuals(median_probes, equipoint_probes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The sweeps' increasing residuals at the (s, t, x) row triples of the
    probes, from one stacked ``_ibeta_rows`` pass: I_x(s, t) - 1/2, whose root
    is the median, at each median probe, and ``_equipoint_excess``, whose
    root is the equipoint, at each equipoint probe."""
    rows = _ibeta_rows(*median_probes, *equipoint_probes)
    k = len(median_probes)
    return ([value - 0.5 for value, _ in rows[:k]],
            [_equipoint_excess(*probe, *row) for probe, row in zip(equipoint_probes, rows[k:])])


def simmons_sweep(d_max: int) -> list[dict]:
    """Check e_{s/2,t/2} <= s/d and (s'+1)/(d'+2) <= e over all integer
    splits d/2 <= s < d for d <= d_max (s' = s/2, d' = d/2), by the sign rule
    (``_SWEEP_TOL``): one equipoint band of ``_bounds_checks``."""
    d_max = _require_int("d_max", d_max, 2)
    splits = [(s, d - s) for d in range(2, d_max + 1) for s in range((d + 1) // 2, d)]
    return _bounds_checks([], [], [], [], splits)[0]


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
    over the distinct shapes (a lane gets the same bits in any row), and not
    at all when there is none.  Each shape is read as the complex s + it,
    which sorts as the (s, t) rows would."""
    st = np.concatenate([np.empty((0, 2)), *(np.asarray(group, dtype=float).reshape(-1, 2) for group in groups)])
    if not st.size:
        return [[] for _ in groups]
    distinct, where = np.unique(st.view(complex)[:, 0], return_inverse=True)
    values = rows(distinct.real, distinct.imag)[where]
    starts = [0, *accumulate(len(group) for group in groups)]
    return [values[i:j].tolist() for i, j in zip(starts, starts[1:])]


def _median_shape(s, t) -> tuple[float, float]:
    """The shape (s, t) as floats, refused as ``median_bounds(BetaShape(s, t))`` refuses it."""
    s, t = _require_real("s_frak", s, 0.0, above=True), _require_real("t_frak", t, 0.0)
    if not (1.0 <= t <= s and s + t >= 3.0):
        raise DomainError(f"median_bounds requires 1 <= t <= s and s+t >= 3, got ({s}, {t})")
    return s, t


def _shape_rows(shapes: list, valid, check) -> np.ndarray:
    """The (s, t) ``shapes`` as one (n, 2) float row.  Pairs of floats are
    checked as one row by ``valid``; other shapes, or a row that fails it, go
    through ``check(s, t)`` one by one, so the first bad shape is refused
    with its own message."""
    if (set(map(type, shapes)) <= {tuple, list} and set(map(len, shapes)) <= {2}
            and set(map(type, chain.from_iterable(shapes))) <= {float}):
        rows = np.fromiter(chain.from_iterable(shapes), float, 2 * len(shapes)).reshape(-1, 2)
        if valid(*rows.T).all():
            return rows
    return np.array([check(s, t) for s, t in shapes], dtype=float).reshape(-1, 2)


def _bounds_checks(median_shapes: list[tuple[float, float]],
                   ordering_shapes: list[tuple[float, float]],
                   lower_shapes: list[tuple[float, float]],
                   conjecture_shapes: list[tuple[float, float]],
                   splits: list[tuple[int, int]] = ()) -> tuple[list[dict], list[dict]]:
    """The checks of ``median_bounds_sweep``, ``ordering_sweep``,
    ``equipoint_lower_sweep`` and ``simmons_sweep`` on their shapes
    (violations, in that order), and the findings of
    ``simmons_conjecture_sweep``, all by the sign rule (``_SWEEP_TOL``): the
    median sandwich and three equipoint bands (the two triangles and the
    halved splits) in one ``_residuals`` pass, and the ordering chain, whose
    bound is the equipoint, in a second after one equipoint row over its
    distinct pairs.  Only the roots that a record prints are solved besides,
    each distinct one once."""
    median_shapes = _require_items("shapes", median_shapes)
    ordering_shapes = _require_items("shapes", ordering_shapes)
    medians = _shape_rows(median_shapes, lambda s, t: (1.0 <= t) & (t <= s) & (s + t >= 3.0) & np.isfinite(s),
                          _median_shape)
    # checked before the 0 < t <= s filter, which would drop a NaN shape unseen
    pairs = _shape_rows(ordering_shapes, lambda s, t: np.isfinite(s) & np.isfinite(t),
                        lambda s, t: (_require_real("s", s), _require_real("t", t)))
    pairs = pairs[(0.0 < pairs[:, 1]) & (pairs[:, 1] <= pairs[:, 0])]
    means, uppers = _median_bounds(*medians.T)
    violations, findings, bands = [], [], []  # a band: its rows, record names, checked ends and records
    for shapes, scale, lower_check, upper_check, records in (
            (lower_shapes, 1.0, "equipoint_lower", None, violations),
            (splits, 0.5, "equipoint_lower", "simmons_upper", violations),
            (conjecture_shapes, 1.0, None, "simmons_conjecture", findings)):
        if shapes:
            rows = np.array(shapes, dtype=float).reshape(-1, 2) * scale
            lower, upper = _equipoint_band(*rows.T)
            ends = [end for end in ((upper_check, upper, -1.0), (lower_check, lower, 1.0)) if end[0]]
            bands.append((rows, shapes, ends, records))
    (at_mean, at_upper), at_ends = _residuals(
        [(*medians.T, means - _SWEEP_TOL), (*medians.T, uppers + _SWEEP_TOL)],
        [(*rows.T, bound - sign * _SWEEP_TOL) for rows, _, ends, _ in bands for _, bound, sign in ends])
    at_ends = iter(at_ends)  # an end fires where its sign times the residual is positive
    fired = [[sign * next(at_ends) > 0.0 for _, _, sign in ends] for _, _, ends, _ in bands]
    flagged = [np.flatnonzero(np.logical_or.reduce(masks)) for masks in fired]
    e_pairs = np.array(_solve_once(_equipoint_rows, pairs)[0])
    strict = np.flatnonzero(pairs[:, 1] < pairs[:, 0])
    (at_e, at_e_up), _ = _residuals(
        [(*pairs.T, e_pairs - _SWEEP_TOL), (*(pairs[strict] + 1.0).T, e_pairs[strict] + _SWEEP_TOL)], []
    ) if len(pairs) else ((e_pairs, e_pairs), [])  # no pairs, no pass
    outside = np.flatnonzero((at_mean > 0.0) | (at_upper < 0.0))
    e_above_m, m_up_above_e = np.flatnonzero(at_e > 0.0), strict[at_e_up < 0.0]
    ms, m_pairs, m_ups = _solve_once(lambda s, t: _ibeta_inv_row(0.5, s, t), medians[outside],
                                     pairs[e_above_m], pairs[m_up_above_e] + 1.0)
    e_bands = _solve_once(_equipoint_rows, *(rows[f] for (rows, *_), f in zip(bands, flagged)))
    for i, m in zip(outside.tolist(), ms):
        (s, t), lower, upper = median_shapes[i], float(means[i]), float(uppers[i])
        violations.append({"check": "median_bounds", "s": s, "t": t, "m": m,
                           "lower": lower, "upper": upper})
    m_at, m_up_at = dict(zip(e_above_m.tolist(), m_pairs)), dict(zip(m_up_above_e.tolist(), m_ups))
    e_pairs = e_pairs.tolist()
    for i in sorted(m_at.keys() | m_up_at.keys()):
        (s, t), e = pairs[i].tolist(), e_pairs[i]
        if i in m_at:
            violations.append({"check": "e_le_m", "s": s, "t": t, "e": e, "m": m_at[i]})
        if i in m_up_at:
            violations.append({"check": "m_up_le_e", "s": s, "t": t, "e": e, "m_up": m_up_at[i]})
    for (_, where, ends, records), masks, f, es in zip(bands, fired, flagged, e_bands):
        records += [{"check": check, "s": where[i][0], "t": where[i][1], "e": e, "bound": float(bound[i])}
                    for i, e in zip(f.tolist(), es) for (check, bound, _), mask in zip(ends, masks) if mask[i]]
    return violations, findings


def equipoint_lower_sweep(s_max: float, step: float) -> list[dict]:
    """Real-parameter lower bound (s+1)/(s+t+2) <= e for 1 <= t <= s <= s_max."""
    return _bounds_checks([], [], _triangle(1.0, s_max, step), [])[0]


def simmons_conjecture_sweep(s_max: float, step: float) -> list[dict]:
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
    shapes = _require_items("shapes", shapes)  # read once, for both checks
    return _bounds_checks(shapes, shapes, _triangle(1.0, lower_s_max, step),
                          _triangle(0.5, conjecture_s_max, step))


def _one_step_sweep(rows, pairs, check: str, names: tuple[str, str]) -> list[dict]:
    """A record, in pair order, of each pair ((s, d), (s + 1, d)) whose first
    ``rows`` value exceeds its second by more than ``_SWEEP_TOL``, every distinct point
    solved once (``_solve_once``).  An empty pair list is refused with
    DomainError: a sweep that compares nothing checks nothing."""
    if not pairs:
        raise DomainError(f"the {check} sweep has no pair (s, d), (s + 1, d) to compare")
    low, high = _solve_once(rows, [p for p, _ in pairs], [q for _, q in pairs])
    return [{"check": check, "s": s, "d": d, names[0]: v0, names[1]: v1}
            for ((s, d), _), v0, v1 in zip(pairs, low, high) if v0 > v1 + _SWEEP_TOL]


def phi_hat_monotone_sweep(d_max: float, step: float) -> list[dict]:
    """One-step monotonicity of Phi_hat on the real grid d/2 <= s < d-1, by
    ``_one_step_sweep``: on a dyadic step, s + 1 is itself a grid point of d.
    """
    pairs = []
    step = _require_real("grid step", step, 0.0, above=True)  # checked before 2 + step uses it
    for i, d in enumerate(_grid(2.0 + step, d_max, step).tolist()):
        # d = 2 + (i + 1) step: s = d/2 + j step is below d - 1 for j <= i // 2
        for j in range(i // 2 + 1):
            s = d / 2.0 + j * step
            pairs.append(((s, d), (s + 1.0, d)))
    return _one_step_sweep(_phi_hat_rows, pairs, "phi_hat_monotone", ("phi_hat_s", "phi_hat_s1"))


def phi_monotone_sweep(d_max: float) -> list[dict]:
    """One-step monotonicity of Phi for half-integer s, d on d/2 <= s < d-1, by
    ``_one_step_sweep`` (half-integers are exact in float); the first pair has
    d = 3, so a ``d_max`` below 3 is refused.
    """
    pairs = [((k / 2.0, d), (k / 2.0 + 1.0, d)) for d in _grid(2.5, d_max, 0.5).tolist()
             for k in range(math.ceil(d), int(2.0 * d) - 2)]  # s = k/2 in [d/2, d - 1)
    return _one_step_sweep(_phi_rows, pairs, "phi_monotone", ("phi_s", "phi_s1"))
