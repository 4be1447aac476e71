"""The optimization core: signed sphere moments alpha/beta, the split
objective kappa(s,t;a,b), its per-split optimum kappa_star(s,t), and the
relaxation constant theta(d) with closed forms and odd-d bounds.

For a sign-pattern diagonal matrix J(s,t;a,b) = a I_s (+) (-b) I_t the
sphere integral of |xi* J xi| evaluates, through the regularized incomplete
beta function, to

    kappa(s,t;a,b) = s a alpha + t b beta,
    alpha = (2 I_{a/(a+b)}(t/2, s/2+1) - 1) / d,
    beta  = (2 I_{b/(a+b)}(s/2, t/2+1) - 1) / d.

Minimizing over trace-normalized (a, b) happens exactly where alpha = beta;
minimizing further over the splits s + t = d gives 1/theta(d).  The module
solves alpha = beta once per split, as the interior minimizer sigma_{s,t} of
the profile function f_{s,t}, and evaluates the per-split optimum two
independent ways (d/2 (alpha + beta) at the optimal (a, b), and
f_{s,t}(sigma_{s,t})), cross-checking them against each other.

That code is written once, on rows: thetas(ds) solves sigma and kappa_*
for all the splits of many d together (theta(d) is its one-d call), one
bracketed-Newton row (``rootfind.newton_rows``) over the row kernel of
``specfun``: one stacked pass per round gives both incomplete betas of the
sigma residual and their densities, its slope, and one more gives the
incomplete betas of kappa_*'s two routes, on sigma's two shape pairs and
their ln B rows.  Each route's betas have the shapes of the other's, and
mostly the same p, so that pass evaluates the profile's two on every split
and alpha's and beta's only where their p differs.  theta refuses a d above
THETA_D_MAX, and the split functions a split (s, t) with s + t above it.
The point functions ``alpha_beta``, ``f_g_h``, ``sigma_st`` and
``kappa_star`` are one-lane calls of the same code, so a split gives the
same bits either way.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .betastats import _equipoint_band
from .errors import DomainError, NumericError, _require_int, _require_items, _require_real
from .rootfind import newton_rows
from .specfun import _ibeta_rows, _ln_beta_row, ln_gamma, reg_inc_beta

KAPPA_CROSS_CHECK_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8
# the largest d theta accepts: near it the scan's kappa_* noise, about 5e-12 relative on
# theta ~ 280, reaches the fixed 1e-9 slack of the odd-d bounds, so the certificate stops here
THETA_D_MAX = 10**5
# The most splits one pass of ``thetas`` solves together: at most 2**17 lanes in its kappa_*
# kernel pass, about 42 MiB at its peak (1.3 kB per split)
_PASS_SPLITS = 2**15


@dataclass(frozen=True)
class SignDiag:
    """The diagonal matrix a I_s (+) (-b) I_t with s positive entries a and
    t negative entries -b, of size s + t <= THETA_D_MAX."""

    s: int
    t: int
    a: float
    b: float

    def __post_init__(self) -> None:
        s, t = _require_split(self.s, self.t, 0)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "a", _require_real("a", self.a, 0.0))
        object.__setattr__(self, "b", _require_real("b", self.b, 0.0))
        if not (self.a + self.b > 0.0 and math.isfinite(self.s * self.a + self.t * self.b)):
            raise DomainError(f"need a + b > 0 and a finite s a + t b, got ({self.a}, {self.b})")

    @property
    def d(self) -> int:
        return self.s + self.t

    def is_trace_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.s * self.a + self.t * self.b - self.d) <= _require_real("tol", tol, 0.0)

    def diagonal(self) -> list[float]:
        return [self.a] * self.s + [-self.b] * self.t


def alpha_beta(J: SignDiag) -> tuple[float, float]:
    """Signed second moments of sphere coordinates against sgn(xi* J xi).

    alpha is the common value of the integral of sgn(xi* J xi) xi_j^2 over
    the positive block 1 <= j <= s, and beta its negative over the other
    block.  Both lie in [-1/d, 1/d].
    """
    if J.t == 0:
        raise DomainError("alpha_beta requires t >= 1")
    (i_alpha, _), (i_beta, _) = _ibeta_rows(*_alpha_beta_triples(J.s, J.t, J.a, J.b))
    alpha, beta = _alpha_beta_values(J.s + J.t, i_alpha, i_beta)
    return float(alpha[0]), float(beta[0])


def _alpha_beta_triples(s, t, a, b) -> tuple[tuple, tuple]:
    """The (a, b, p) triples of the incomplete betas behind alpha and beta."""
    u = a / (a + b)
    return (t / 2.0, s / 2.0 + 1.0, u), (s / 2.0, t / 2.0 + 1.0, 1.0 - u)


def _alpha_beta_values(d, i_alpha, i_beta) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta from the values of their incomplete betas."""
    return (2.0 * i_alpha - 1.0) / d, (2.0 * i_beta - 1.0) / d


def kappa(J: SignDiag) -> float:
    """Sphere integral of |xi* J xi|, via s a alpha + t b beta.

    Equals 1 when J is (a multiple of) the identity pattern; for
    trace-normalized J the value lies in (0, 1].
    """
    if J.t == 0:
        # sgn is identically +1, so the integral is a * E[|xi|^2] = a.
        return J.a
    alpha, beta = alpha_beta(J)
    return J.s * J.a * alpha + J.t * J.b * beta


def sigma_st(s: int, t: int) -> float:
    """Interior minimizer sigma of the profile function f_{s,t}: the root of

        I_sigma(s/2, 1+t/2) = I_{1-sigma}(t/2, 1+s/2)

    inside the analytic bracket [(s+2)/(s+t+4), s/(s+t)] (valid for
    s >= t >= 1).  A bracket without a sign change signals an upstream bug
    and raises NumericError.

    Against 40-digit mpmath roots (``scripts/mpmath_roots.py``) sigma is off
    by at most 5.6 ulps for d = s + t <= 12 and by 5.2e-15 at (2001, 2000),
    but by 223-873 ulps (up to about 1e-13) on the five seeded splits of
    d = 99,999 (``--d 99999 --lanes 5``): the digits are lost at large
    shapes, presumably in I_p near shape 2.5e4 (ROADMAP item 9).
    """
    s, t = _require_split(s, t)
    if _require_int("s", s, t) == t:
        return 0.5
    return float(_sigma_rows(np.array([s]), np.array([t]))[0])


def _sigma_residual(sh, th, x, ln_b) -> tuple[np.ndarray, np.ndarray]:
    """I_x(s/2, 1+t/2) - I_{1-x}(t/2, 1+s/2) per lane, increasing in x, and
    its x-derivative, the sum of the two densities; both incomplete betas
    come from one stacked row-kernel pass, with ln B from ``ln_b``."""
    # sigma_{s,t} is the equipoint e_{s/2,t/2} but keeps this residual: through
    # betastats' one-beta form it lands 2-4x farther from 40-digit roots
    # (1.2e-14 against 5.5e-15 at (2001, 2000)); test_sigma_st_against_mpmath
    # holds today's accuracy.  theta(20001) escapes its odd-d bounds even so:
    # its 125.33768006817907 is below the float theta_minus 125.33768006919689.
    (left, left_pdf), (right, right_pdf) = _ibeta_rows(
        (sh, th + 1.0, x), (th, sh + 1.0, 1.0 - x), ln_b=ln_b.ravel()
    )
    return left - right, left_pdf + right_pdf


def _split_ln_b(sh, th) -> np.ndarray:
    """The rows of ln B(s/2, 1+t/2) and ln B(t/2, 1+s/2), from one call."""
    return _ln_beta_row(np.concatenate([sh, th]), np.concatenate([th + 1.0, sh + 1.0])).reshape(2, -1)


def _sigma_rows(s: np.ndarray, t: np.ndarray, ln_b=None) -> np.ndarray:
    """sigma_{s,t} for every lane s > t >= 1 (integer rows), one Newton row
    on the equipoint band of (s/2, t/2), which is [(s+2)/(s+t+4), s/(s+t)],
    with their ``_split_ln_b`` (computed if not given)."""
    sh, th = s / 2.0, t / 2.0
    ln_b = _split_ln_b(sh, th) if ln_b is None else ln_b
    return newton_rows(
        lambda x, lanes: _sigma_residual(sh[lanes], th[lanes], x, ln_b[:, lanes]),
        *_equipoint_band(sh, th),
        xtol=1e-15,
        lane_name=lambda i: f"{i} (sigma of (d, s, t) = ({s[i] + t[i]}, {s[i]}, {t[i]}))",
    )


def f_g_h(s: int, t: int, p: float) -> tuple[float, float, float]:
    """The three profile functions of the reformulated optimization at p.

    f is the full objective after the change of variables p = b/(a+b) under
    the trace normalization; g and h are its relaxations that share the
    value f(sigma_{s,t}) at the interior minimizer but are monotone on one
    side of it.  h collapses to the closed form
    Gamma(s/2+t/2+1) / (Gamma(s/2+1) Gamma(t/2+1)) p^(s/2) (1-p)^(t/2).
    """
    s, t = _require_split(s, t)
    p = _require_real("p", p, 0.0, 1.0)
    (i_left, _), (i_right, _) = _ibeta_rows(*_profile_triples(s, t, p))
    g = 2.0 * (s * i_left + t * i_right) / (s + t) - 1.0
    h = i_left + i_right - 1.0
    return float(_f_value(s, t, p, i_left, i_right)[0]), float(g[0]), float(h[0])


def _profile_triples(s, t, p) -> tuple[tuple, tuple]:
    """The (a, b, p) triples of I_{1-p}(t/2, 1+s/2) and I_p(s/2, 1+t/2),
    the incomplete betas behind f, g and h."""
    sh, th = s / 2.0, t / 2.0
    return (th, sh + 1.0, 1.0 - p), (sh, th + 1.0, p)


def _f_value(s, t, p, i_left, i_right):
    """f_{s,t}(p) from the values of its two incomplete betas."""
    w = (1.0 - p) * s + p * t
    return (2.0 * (1.0 - p) * s * i_left + 2.0 * p * t * i_right) / w - 1.0


def h_closed_form(s: int, t: int, p: float) -> float:
    """Gamma-form of h_{s,t}(p); see f_g_h."""
    s, t = _require_split(s, t)
    if (p := _require_real("p", p, 0.0, 1.0)) in (0.0, 1.0):
        return 0.0
    ln_c = ln_gamma(s / 2.0 + t / 2.0 + 1.0) - ln_gamma(s / 2.0 + 1.0) - ln_gamma(t / 2.0 + 1.0)
    return math.exp(ln_c + (s / 2.0) * math.log(p) + (t / 2.0) * math.log1p(-p))


def kappa_star(s: int, t: int) -> tuple[float, float, float]:
    """Per-split optimum kappa_*(s,t) and its optimal weights (a, b).

    The split equation alpha = beta is solved once, as the interior
    minimizer sigma = sigma_{s,t} (u = a/(a+b) = 1 - sigma), and the value
    is then computed two independent ways and cross-asserted:

    1. d/2 (alpha + beta) at the trace-normalized weights s a + t b = s + t
       with a/(a+b) = u, which also yields (a_opt, b_opt);
    2. the profile value f_{s,t}(sigma).

    Disagreement beyond 1e-9 raises NumericError.
    """
    s, t = _require_split(s, t)
    sigma = sigma_st(s, t) if s >= t else 1.0 - sigma_st(t, s)
    s, t = np.array([s]), np.array([t])
    ks, a_opt, b_opt = _kappa_rows(s, t, np.array([sigma]), _split_ln_b(s / 2.0, t / 2.0))
    return float(ks[0]), float(a_opt[0]), float(b_opt[0])


def _kappa_rows(
    s: np.ndarray, t: np.ndarray, sigma: np.ndarray, ln_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """kappa_star's two routes and cross-check on rows of splits (s, t) with
    their interior minimizers sigma; see kappa_star.  The incomplete betas
    of the two routes come from one stacked row-kernel pass (which also
    computes their densities, unused here), with sigma's ``ln_b``: the
    profile's two on every split, and alpha's and beta's only on the lanes
    where their p differs from that of the profile beta with their shapes;
    an empty row makes none."""
    if not s.size:
        return np.empty(0), np.empty(0), np.empty(0)
    d = s + t
    u = 1.0 - sigma
    lam = d / (s * u + t * (1.0 - u))
    a_opt, b_opt = lam * u, lam * (1.0 - u)
    # alpha has the shapes (t/2, 1+s/2) of the profile's I_{1-p}, beta those (s/2, 1+t/2) of its
    # I_p, and most lanes their p as well; the kernel is lane-exact, so those lanes copy the value
    profile = _profile_triples(s, t, sigma)
    routes = _alpha_beta_triples(s, t, a_opt, b_opt)
    own = [np.flatnonzero(route[2] != partner[2]) for route, partner in zip(routes, profile)]
    (i_left, _), (i_right, _), *own_values = _ibeta_rows(
        *profile, *([row[lanes] for row in route] for route, lanes in zip(routes, own)),
        ln_b=np.concatenate([ln_b[1], ln_b[0], ln_b[1, own[0]], ln_b[0, own[1]]]),
    )
    i_alpha, i_beta = i_left.copy(), i_right.copy()
    for i_route, lanes, (value, _) in zip((i_alpha, i_beta), own, own_values):
        i_route[lanes] = value

    # Route 1: alpha = beta at the trace-normalized weights.
    alpha, beta = _alpha_beta_values(d, i_alpha, i_beta)
    ks_root = d * 0.5 * (alpha + beta)

    # Route 2: profile value at the interior minimizer.
    f_val = _f_value(s, t, sigma, i_left, i_right)

    bad = np.flatnonzero(np.abs(ks_root - f_val) > KAPPA_CROSS_CHECK_TOL)
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"kappa_star routes disagree for (s, t) = ({s[i]}, {t[i]}): "
            f"alpha=beta route {float(ks_root[i])!r} vs profile route {float(f_val[i])!r}"
        )
    return ks_root, a_opt, b_opt


@dataclass(frozen=True)
class ThetaReport:
    """theta(d) with the minimizing split, the optimal interior point, and
    (odd d >= 3) the analytic bounds (theta_minus, theta_plus, theta_plusplus)."""

    d: int
    theta: float
    kappa_star: float
    minimizer_s: int
    minimizer_t: int
    p_opt: float
    bounds_odd: tuple[float, float, float] | None = None


def _ln_gamma_ratio(x: float) -> float:
    """ln Gamma(x + 1/2) - ln Gamma(x): the one Gamma ratio of theta's closed forms."""
    return ln_gamma(x + 0.5) - ln_gamma(x)


def _require_d(d, least: int) -> int:
    """``d`` as an int in [least, THETA_D_MAX], else DomainError: theta's one check of d."""
    if (d := _require_int("d", d, least)) > THETA_D_MAX:
        raise DomainError(f"theta capped at d <= {THETA_D_MAX}, got {reprlib.repr(d)}")
    return d


def _require_split(s, t, least_t: int = 1) -> tuple[int, int]:
    """``(s, t)`` as ints with s >= 1, t >= least_t and d = s + t <= THETA_D_MAX,
    else DomainError: the one check of a split, whose d is read as theta's."""
    s, t = _require_int("s", s, 1), _require_int("t", t, least_t)
    _require_d(s + t, 1)
    return s, t


def theta_even_closed_form(d: int) -> float:
    """Gamma-quotient closed form of 1/theta(d) for even d <= THETA_D_MAX."""
    if (d := _require_d(d, 2)) % 2:
        raise DomainError(f"even d required, got {reprlib.repr(d)}")
    return math.exp(-_ln_gamma_ratio(d / 4.0 + 0.5)) / math.sqrt(math.pi)


def theta_odd_bounds(d: int) -> tuple[float, float, float]:
    """Analytic bounds (theta_minus, theta_plus, theta_plusplus) for odd d in [3, THETA_D_MAX].

    theta_plusplus is the pure gamma-quotient bound; theta_minus multiplies
    it by the fourth-root prefactor (d^2d / ((d+1)^(d+1) (d-1)^(d-1)))^(1/4);
    theta_plus is the reciprocal of the two-term incomplete-beta expression
    evaluated at (d+-1)/(2d).

    Above d of about 2e4 the float theta_plus can fall below theta_minus: it
    does on 39 of 98 sampled odd d in [4001, 99999] (every 998th from 4001,
    and 99999), the first at d = 24,959, and on none of the odd d <= 4001.
    That stands until the bounds are made accurate (ROADMAP item 1).
    """
    if (d := _require_d(d, 3)) % 2 == 0:
        raise DomainError(f"theta_odd_bounds requires odd d >= 3, got {reprlib.repr(d)}")
    theta_pp = math.sqrt(math.pi / 2.0) * math.exp(_ln_gamma_ratio(d / 2.0 + 1.0))
    prefactor = math.exp(
        0.25 * (2 * d * math.log(d) - (d + 1) * math.log(d + 1.0) - (d - 1) * math.log(d - 1.0))
    )
    theta_m = prefactor * theta_pp
    inv_theta_p = (
        (d - 1.0) / d * reg_inc_beta((d + 1) / 4.0, (d + 3) / 4.0, (d + 1.0) / (2.0 * d))
        + (d + 1.0) / d * reg_inc_beta((d - 1) / 4.0, (d + 5) / 4.0, (d - 1.0) / (2.0 * d))
        - 1.0
    )
    return theta_m, 1.0 / inv_theta_p, theta_pp


def _split_scan(*ds: int) -> tuple[np.ndarray, ...]:
    """(s, t, kappa_*, a_opt, b_opt) of every split s >= ceil(d/2), t >= 1 of
    each d in turn, as rows: one sigma row (sigma = 1/2 without a solve where
    s = t) and one row of kappa_star's two routes, on one ``_split_ln_b``."""
    s = np.concatenate([np.arange((d + 1) // 2, d) for d in ds])
    t = np.repeat(ds, [d // 2 for d in ds]) - s
    ln_b = _split_ln_b(s / 2.0, t / 2.0)
    sigma = np.full(s.size, 0.5)
    unequal = s > t
    sigma[unequal] = _sigma_rows(s[unequal], t[unequal], ln_b[:, unequal])
    return (s, t, *_kappa_rows(s, t, sigma, ln_b))


def thetas(ds) -> list[ThetaReport]:
    """``theta(d)`` for each d of ``ds``, in order, with the same bits.

    Every d is checked first, and one above ``THETA_D_MAX`` is refused with
    DomainError before any scan is built.  The d's are then cut, in order,
    into runs of whole d's of at most ``_PASS_SPLITS`` splits (or one d),
    each one ``_split_scan``, whose d's then take their minima and run
    theta's checks in order.  A scan that fails is run again one d at a time, to raise the
    NumericError that a loop of ``theta(d)`` raises first."""
    runs, splits = [], 0
    for d in [_require_d(d, 1) for d in _require_items("ds", ds)]:
        if not runs or splits + d // 2 > _PASS_SPLITS:
            runs.append([])
            splits = 0
        runs[-1].append(d)
        splits += d // 2
    reports = []
    for run in runs:
        try:
            rows = _split_scan(*run)
        except NumericError:
            if len(run) > 1:
                list(map(theta, run))  # raises where a loop of theta(d) would
            raise
        stops = np.cumsum([d // 2 for d in run[:-1]])
        reports += map(_theta_report, run, *(np.split(row, stops) for row in rows))
    return reports


def theta(d: int) -> ThetaReport:
    """The relaxation constant theta(d) = 1 / min_{s+t=d} kappa_*(s, t); a one-d ``thetas``.

    The minimum is found by scanning every split s >= ceil(d/2), all of them
    solved together as rows (``_split_scan``), rather than trusting the
    known minimizer, which is then asserted: the proven split
    ((d+1)//2, d//2), that is (d/2, d/2) for even d (with ties broken toward
    smaller s).  For even d the two closed forms of 1/theta(d) are
    additionally required to agree to 1e-12, and the scan minimum must
    match the closed form to 1e-8; a mismatch raises NumericError.
    """
    return thetas([d])[0]


def _theta_report(d: int, *rows: np.ndarray) -> ThetaReport:
    """theta(d), checked, from the rows (s, t, kappa_*, a_opt, b_opt) of its splits."""
    # the last split, (d, 0), is the identity pattern: the integrand is constant
    rows = [np.append(row, last) for row, last in zip(rows, (d, 0, 1.0, 1.0, 0.0))]
    i = int(np.argmin(rows[2]))  # the first minimum: ties go to the smaller s
    best_s, best_t, best_ks, best_a, best_b = (row[i].item() for row in rows)

    if (best_s, best_t) != (proven := ((d + 1) // 2, d // 2)):
        raise NumericError(
            f"scan minimizer ({best_s}, {best_t}) differs from the proven split {proven} for d={d}"
        )

    if d % 2 == 0:
        beta_form = 2.0 * reg_inc_beta(d / 4.0, d / 4.0 + 1.0, 0.5) - 1.0
        gamma_form = theta_even_closed_form(d)
        if abs(beta_form - gamma_form) > 1e-12:
            raise NumericError(
                f"even-d closed forms disagree for d={d}: {beta_form!r} vs {gamma_form!r}"
            )
        if abs(best_ks - gamma_form) > CLOSED_FORM_TOL:
            raise NumericError(
                f"scan minimum {best_ks!r} differs from closed form {gamma_form!r} for d={d}"
            )
    # sigma of the minimizing split (1/2 for even d, where a = b); the
    # degenerate split (1, 0) of d = 1 takes the equipoint convention e_{s,0} = 1
    p_opt = best_b / (best_a + best_b) if d > 1 else 1.0

    th = 1.0 / best_ks
    bounds = theta_odd_bounds(d) if d % 2 and d > 1 else None
    if bounds and not (bounds[0] - 1e-9 <= th <= min(bounds[1:]) + 1e-9):
        raise NumericError(f"theta({d})={th!r} escapes its odd-d bounds {bounds!r}")
    return ThetaReport(
        d=d,
        theta=th,
        kappa_star=best_ks,
        minimizer_s=best_s,
        minimizer_t=best_t,
        p_opt=p_opt,
        bounds_odd=bounds,
    )
