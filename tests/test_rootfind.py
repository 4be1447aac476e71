import importlib

import numpy as np
import pytest

from spectra_theta import specfun
from spectra_theta.betastats import BetaShape, equipoint, equipoints, median, medians
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
    # The row kernel switches from lane-by-lane to numpy at _ROW_MIN_LANES;
    # either way every lane of a row has its one-lane call's bits.
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
    assert reg_inc_beta_inv(0.37, 2.5, 7.0).hex() == "0x1.9b5abeeb916d1p-3"
    assert theta_module.sigma_st(1465, 536).hex() == "0x1.76d021a4b95fcp-1"
    assert theta_module.theta(2001).kappa_star.hex() == "0x1.9d2efb0a51181p-6"
