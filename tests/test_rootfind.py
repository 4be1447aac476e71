import hashlib
import importlib

import numpy as np
import pytest

from spectra_theta import specfun
from spectra_theta.betastats import BetaShape, _equipoint_rows, equipoint, equipoints, median, medians
from spectra_theta.errors import NumericError
from spectra_theta.rootfind import newton_rows
from spectra_theta.specfun import reg_inc_beta_inv

theta_module = importlib.import_module("spectra_theta.theta")


def _shapes(n: int) -> list[BetaShape]:
    rng = np.random.Generator(np.random.Philox(key=61))
    s = np.exp(rng.uniform(np.log(0.2), np.log(300.0), n))
    t = np.exp(rng.uniform(np.log(0.2), np.log(300.0), n))
    return [BetaShape(a, b) for a, b in zip(s.tolist(), t.tolist())]


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", [specfun._ROW_MIN_LANES // 4, specfun._ROW_MIN_LANES + 8])
def test_row_lanes_equal_their_one_lane_calls(n):
    # The row kernel switches from the scalar Lentz loop to the numpy one at
    # _ROW_MIN_LANES interior lanes; either way every lane of a row has its
    # one-lane call's bits.
    shapes = _shapes(n)
    assert _bits(equipoints(shapes)) == _bits(equipoint(shape) for shape in shapes)
    assert _bits(medians(shapes)) == _bits(median(shape) for shape in shapes)
    y = np.linspace(0.0, 1.0, n)
    a = np.array([shape.s_frak for shape in shapes])
    b = np.array([shape.t_frak for shape in shapes])
    row = specfun._ibeta_inv_row(y, a, b)
    assert _bits(row) == _bits(map(reg_inc_beta_inv, y.tolist(), a.tolist(), b.tolist()))
    s = np.arange(n + 1, 2 * n)
    t = 2 * n - s
    sigma = theta_module._sigma_rows(s, t)
    assert _bits(sigma) == _bits(map(theta_module.sigma_st, s.tolist(), t.tolist()))


def test_bad_bracket_names_its_lane():
    lo = np.zeros(5)
    hi = np.array([1.0, 2.0, 3.0, -1.0, 4.0])  # lane 3: the residual x - 0.5 is < 0 at both ends
    with pytest.raises(NumericError, match="lane 3"):
        newton_rows(lambda x, lanes: (x - 0.5, np.ones(x.size)), lo, hi, xtol=1e-15)


def test_exhausted_budget_raises():
    # A zero slope forces bisection; halving [0, 1] toward 1e-300 with no
    # width tolerance needs far more than the iteration budget.
    with pytest.raises(NumericError, match="did not converge"):
        newton_rows(lambda x, lanes: (x - 1e-300, np.zeros(x.size)), 0.0, 1.0, xtol=0.0)


def test_roots_keep_their_recorded_bits():
    # float.hex of roots recorded before the step rule moved onto rows
    assert equipoint(BetaShape(143.0, 46.0)).hex() == "0x1.8327ddfef4cd5p-1"
    # stops on an exact zero residual, where the residual stop goes first
    assert equipoint(BetaShape(36.0, 11.5)).hex() == "0x1.83227b0109c1ep-1"
    assert median(BetaShape(10.0, 7.0)).hex() == "0x1.2efcef9ee5e9ap-1"
    # ...16d1 before the kernel's logs and exps were numpy's (-3.05e-15 from
    # the 40-digit root; now -3.16e-15)
    assert reg_inc_beta_inv(0.37, 2.5, 7.0).hex() == "0x1.9b5abeeb916cdp-3"
    # ...95fc from a midpoint start; both lie 77-79 ulps below the 40-digit root
    assert theta_module.sigma_st(1465, 536).hex() == "0x1.76d021a4b95fap-1"
    assert theta_module.theta(2001).kappa_star.hex() == "0x1.9d2efb0a51181p-6"


def test_an_empty_row_makes_no_residual_call():
    # theta(1) and theta(2) solve an empty sigma row
    calls = []

    def f(x, lanes):
        calls.append(x.size)
        return x - 0.5, np.ones(x.size)

    roots = newton_rows(f, np.empty(0), np.empty(0), xtol=1e-15)
    assert roots.shape == (0,) and calls == []
    assert [repr(theta_module.theta(d)) for d in (1, 2, 3)] == [
        "ThetaReport(d=1, theta=1.0, kappa_star=1.0, minimizer_s=1, minimizer_t=0, p_opt=1.0, "
        "bounds_odd=None)",
        "ThetaReport(d=2, theta=1.5707963267948963, kappa_star=0.6366197723675815, minimizer_s=1, "
        "minimizer_t=1, p_opt=0.5, bounds_odd=None)",
        "ThetaReport(d=3, theta=1.7348165407110137, kappa_star=0.5764298278999291, minimizer_s=2, "
        "minimizer_t=1, p_opt=0.64469860239188, bounds_odd=(1.7320508075688756, 1.7706414304951417, "
        "1.885618083164125))",
    ]


def test_a_lane_without_x0_starts_at_the_inverse_hermite_point():
    # f(x) = x**3 + x - 1/2 on [0, 1]: end residuals -1/2 and 3/2, slopes 1
    # and 4.  The cubic Hermite interpolant of x(f) through the ends crosses
    # f = 0 at u = 1/4 of the way from f(0) to f(1), at
    # h10 * 2 / 1 + h01 * 1 + h11 * 2 / 4 = 0.4140625 (h10 = 9/64,
    # h01 = 5/32, h11 = -3/64): the first residual call after the ends
    calls = []

    def f(x, lanes):
        calls.append(x.tolist())
        return x**3 + x - 0.5, 3.0 * x**2 + 1.0

    newton_rows(f, 0.0, 1.0, xtol=1e-15)
    assert calls[:2] == [[0.0, 1.0], [0.4140625]]


@pytest.mark.parametrize(
    "slope_lo, slope_hi, start",
    [(2.0, 2.0, 0.25), (0.0, 2.0, 0.5), (-1.0, 2.0, 0.5), (np.nan, 2.0, 0.5), (2.0, np.nan, 0.5),
     (2.0, np.inf, 0.5), (1e-3, 1e-3, 0.5)],
)
def test_a_bad_end_slope_or_a_point_outside_starts_at_the_midpoint(slope_lo, slope_hi, start):
    # f(x) = 2x - 1/2 on [0, 1]: its true end slopes put the Hermite point on
    # the root 1/4.  A zero, negative, NaN or infinite end slope, or end
    # slopes of 1e-3, which put the point at 187.66 (outside), start the lane
    # at the midpoint instead; Newton then lands on the root
    calls = []

    def f(x, lanes):
        calls.append(x.tolist())
        return 2.0 * x - 0.5, np.where(x == 0.0, slope_lo, np.where(x == 1.0, slope_hi, 2.0))

    assert newton_rows(f, 0.0, 1.0, xtol=1e-15).tolist() == [0.25]
    assert calls[1] == [start]


def test_a_lane_at_its_noise_floor_stops_on_its_step():
    # Rounding noise that keeps the residual's sign: on [r - 4e-15, r] the
    # residual x - r reads 1.5e-15.  Newton from the right lands on that
    # plateau, where its steps stay at 1.5 xtol and fail the creep test; the
    # lane stops there, inside the plateau, within 6 residual calls (bracket
    # ends included), where bisecting from the far bracket end took 55.
    r, calls = 0.3, []

    def f(x, lanes):
        calls.append(x.size)
        return np.where((r - 4e-15 <= x) & (x <= r), 1.5e-15, x - r), np.ones(x.size)

    root = newton_rows(f, 0.0, 1.0, x0=0.9, xtol=1e-15)[0]
    assert len(calls) <= 6 and r - 4e-15 <= root <= r


def _seeded_row():
    # 3,000 lanes: shapes (s, t) uniform on [0.5, 200] and levels y, Philox key 25
    rng = np.random.Generator(np.random.Philox(key=25))
    s, t = rng.uniform(0.5, 200.0, (2, 3000))
    return s, t, rng.random(3000)


def test_rows_without_an_absolute_tolerance_keep_their_bits():
    # Every stop reads tol = xtol + rtol |x|; the xtol = 0 rows (equipoints,
    # medians and the inverse, which also start at their own x0) read it as
    # rtol |x|, and the equipoint rows, which set no ftol, also stop on it at
    # their noise floor.  SHA-256 prefixes of 3,000 seeded lanes each.  The
    # median and inverse digests were recorded before the start rule and the
    # stops were added, and the one tolerance keeps them.  The equipoint
    # digest moved once, when the noise-floor stop came to read rtol |x|: 87
    # lanes moved by up to 31 ulps, and their worst error against 40-digit
    # mpmath fell from 1.49e-14 to 1.43e-14 (scripts/mpmath_roots.py
    # --equipoints 3000 --seed 25).  All three moved when the row kernel's
    # logs and exps became numpy's (463 equipoint, 253 median and 466 inverse
    # lanes); the worst errors against 40-digit mpmath read 2.197e-14 ->
    # 2.191e-14, and 2.373e-14 and 3.961e-13 on both sides.
    s, t, y = _seeded_row()

    def digest(values):
        return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()[:16]

    assert digest(_equipoint_rows(s, t)) == "f24f948334e20e37"
    assert digest(medians([BetaShape(a, b) for a, b in zip(s.tolist(), t.tolist())])) == "c815b4a52ffb2a30"
    assert digest(specfun._ibeta_inv_row(y, s, t)) == "94574ead857eea4e"


def test_an_equipoint_row_stops_at_its_noise_floor(monkeypatch):
    # The seeded row's lanes reach their residual's noise floor with Newton
    # steps just above rtol |x|; they stop there, and the row makes 11
    # residual calls (bracket ends included).  When the stop read xtol only,
    # its slowest lanes bisected from a far bracket end, and it made 46.
    betastats = importlib.import_module("spectra_theta.betastats")
    residual, calls = betastats._equipoint_residual, []

    def counted(s, t, x, ln_b):
        calls.append(x.size)
        return residual(s, t, x, ln_b)

    monkeypatch.setattr(betastats, "_equipoint_residual", counted)
    s, t, _ = _seeded_row()
    _equipoint_rows(s, t)
    assert len(calls) <= 12


def test_an_inverse_lane_creeping_near_one_is_not_stopped_as_noise():
    # Near p = 1 with b below about 0.1 the slope falls fast toward the root,
    # so Newton steps from the right grow (2.7e-14, 8.0e-14, 1.2e-13) and
    # fail the shrink test while they are within 16 rtol |p|.  Stopping there
    # as at a noise floor gave p 2e-13 short, with |I_p - y| = 1.5e-2.  The
    # inverse sets ftol, so it takes no noise-floor stop: the lane bisects on
    # to the root it had before that stop existed, 2e-17 from the 40-digit
    # one (lane 1190 of the Philox key 101 row, shapes log-uniform on
    # [0.05, 1000]).
    y = float.fromhex("0x1.8bebdd3bbd883p-1")  # 0.7732838759827846
    a = float.fromhex("0x1.1c0e2efb2dab3p+9")  # 568.1108087513916
    b = float.fromhex("0x1.1565103c325f6p-4")  # 0.06772333471158007
    p = reg_inc_beta_inv(y, a, b)
    assert p.hex() == "0x1.ffffffffff4d4p-1"
    assert abs(specfun.reg_inc_beta(a, b, p) - y) < 1e-6
