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

That code is written once, on rows: theta(d) solves sigma and kappa_* for
all its splits together, one bracketed-Newton row (``rootfind.newton_rows``)
over the row kernel of ``specfun``: one stacked pass per round gives both
incomplete betas of the sigma residual and their densities, its slope, and
one more gives the four incomplete betas of kappa_*'s two routes.  The
point functions ``alpha_beta``, ``f_g_h``, ``sigma_st`` and ``kappa_star``
are one-lane calls of the same code, so a split gives the same bits either
way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, _require_int, _require_real
from .rootfind import newton_rows
from .specfun import _ibeta_rows, ln_gamma, reg_inc_beta

KAPPA_CROSS_CHECK_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8


@dataclass(frozen=True)
class SignDiag:
    """The diagonal matrix a I_s (+) (-b) I_t with s positive entries a and
    t negative entries -b."""

    s: int
    t: int
    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _require_int("s", self.s, 1))
        object.__setattr__(self, "t", _require_int("t", self.t, 0))
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
    """
    t = _require_int("t", t, 1)
    s = _require_int("s", s, t)
    if s == t:
        return 0.5
    return float(_sigma_rows(np.array([s]), np.array([t]))[0])


def _sigma_residual(sh, th, x) -> tuple[np.ndarray, np.ndarray]:
    """I_x(s/2, 1+t/2) - I_{1-x}(t/2, 1+s/2) per lane, increasing in x, and
    its x-derivative, the sum of the two densities; both incomplete betas
    come from one stacked row-kernel pass."""
    (left, left_pdf), (right, right_pdf) = _ibeta_rows((sh, th + 1.0, x), (th, sh + 1.0, 1.0 - x))
    return left - right, left_pdf + right_pdf


def _sigma_rows(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sigma_{s,t} for every lane s > t >= 1 (integer rows), one Newton row."""
    sh, th = s / 2.0, t / 2.0
    d = s + t
    return newton_rows(
        lambda x, lanes: _sigma_residual(sh[lanes], th[lanes], x),
        (s + 2.0) / (d + 4.0),
        s / d,
        xtol=1e-15,
    )


def f_g_h(s: int, t: int, p: float) -> tuple[float, float, float]:
    """The three profile functions of the reformulated optimization at p.

    f is the full objective after the change of variables p = b/(a+b) under
    the trace normalization; g and h are its relaxations that share the
    value f(sigma_{s,t}) at the interior minimizer but are monotone on one
    side of it.  h collapses to the closed form
    Gamma(s/2+t/2+1) / (Gamma(s/2+1) Gamma(t/2+1)) p^(s/2) (1-p)^(t/2).
    """
    s, t = _require_int("s", s, 1), _require_int("t", t, 1)
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
    s, t = _require_int("s", s, 1), _require_int("t", t, 1)
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
    s, t = _require_int("s", s, 1), _require_int("t", t, 1)
    sigma = sigma_st(s, t) if s >= t else 1.0 - sigma_st(t, s)
    ks, a_opt, b_opt = _kappa_rows(np.array([s]), np.array([t]), np.array([sigma]))
    return float(ks[0]), float(a_opt[0]), float(b_opt[0])


def _kappa_rows(
    s: np.ndarray, t: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """kappa_star's two routes and cross-check on rows of splits (s, t) with
    their interior minimizers sigma; see kappa_star.  The four incomplete
    betas of the two routes come from one stacked row-kernel pass (which
    also computes their densities, unused here); an empty row makes none."""
    if not s.size:
        return np.empty(0), np.empty(0), np.empty(0)
    d = s + t
    u = 1.0 - sigma
    lam = d / (s * u + t * (1.0 - u))
    a_opt, b_opt = lam * u, lam * (1.0 - u)
    (i_alpha, _), (i_beta, _), (i_left, _), (i_right, _) = _ibeta_rows(
        *_alpha_beta_triples(s, t, a_opt, b_opt), *_profile_triples(s, t, sigma)
    )

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


def theta_even_closed_form(d: int) -> float:
    """Gamma-quotient closed form of 1/theta(d) for even d."""
    if (d := _require_int("d", d, 2)) % 2:
        raise DomainError(f"even d required, got {d}")
    return math.exp(ln_gamma(0.5 + d / 4.0) - ln_gamma(1.0 + d / 4.0)) / math.sqrt(math.pi)


def theta_odd_bounds(d: int) -> tuple[float, float, float]:
    """Analytic bounds (theta_minus, theta_plus, theta_plusplus) for odd d >= 3.

    theta_plusplus is the pure gamma-quotient bound; theta_minus multiplies
    it by the fourth-root prefactor (d^2d / ((d+1)^(d+1) (d-1)^(d-1)))^(1/4);
    theta_plus is the reciprocal of the two-term incomplete-beta expression
    evaluated at (d+-1)/(2d).
    """
    if (d := _require_int("d", d, 3)) % 2 == 0:
        raise DomainError(f"theta_odd_bounds requires odd d >= 3, got {d}")
    theta_pp = math.sqrt(math.pi / 2.0) * math.exp(ln_gamma((d + 3) / 2.0) - ln_gamma(d / 2.0 + 1.0))
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


def _split_scan(d: int) -> tuple[np.ndarray, ...]:
    """(s, t, kappa_*, a_opt, b_opt) of every split s >= ceil(d/2), t >= 1 of
    d, as rows: one sigma row (sigma = 1/2 without a solve where s = t) and
    one row of kappa_star's two routes."""
    s = np.arange((d + 1) // 2, d)
    t = d - s
    sigma = np.full(s.size, 0.5)
    unequal = s > t
    sigma[unequal] = _sigma_rows(s[unequal], t[unequal])
    return (s, t, *_kappa_rows(s, t, sigma))


def theta(d: int) -> ThetaReport:
    """The relaxation constant theta(d) = 1 / min_{s+t=d} kappa_*(s, t).

    The minimum is found by scanning every split s >= ceil(d/2), all of them
    solved together as rows (``_split_scan``), rather than
    trusting the known minimizer, which is then asserted: (d/2, d/2) for
    even d, ((d+1)/2, (d-1)/2) for odd d (with ties broken toward smaller
    s).  For even d the two closed forms of 1/theta(d) are additionally
    required to agree to 1e-12, and the scan minimum must match the closed
    form to 1e-8; a mismatch raises NumericError.
    """
    d = _require_int("d", d, 1)
    # the last split, (d, 0), is the identity pattern: the integrand is constant
    rows = [np.append(row, last) for row, last in zip(_split_scan(d), (d, 0, 1.0, 1.0, 0.0))]
    i = int(np.argmin(rows[2]))  # the first minimum: ties go to the smaller s
    best_s, best_t, best_ks, best_a, best_b = (row[i].item() for row in rows)

    if d == 1:
        expect_s, expect_t = 1, 0
    elif d % 2 == 0:
        expect_s = expect_t = d // 2
    else:
        expect_s, expect_t = (d + 1) // 2, (d - 1) // 2
    if (best_s, best_t) != (expect_s, expect_t):
        raise NumericError(
            f"scan minimizer ({best_s}, {best_t}) differs from the proven split "
            f"({expect_s}, {expect_t}) for d={d}"
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
        p_opt = 0.5
    elif d == 1:
        p_opt = 1.0  # degenerate split (1, 0); matches the equipoint convention e_{s,0} = 1
    else:
        p_opt = best_b / (best_a + best_b)  # sigma of the minimizing split

    bounds = theta_odd_bounds(d) if (d % 2 == 1 and d >= 3) else None
    th = 1.0 / best_ks
    if bounds is not None:
        t_minus, t_plus, t_pp = bounds
        if not (t_minus - 1e-9 <= th <= min(t_plus, t_pp) + 1e-9):
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
