"""The mpmath reference of scripts/mp_reference.py, checked on its own:
against mpmath's betainc where that converges, by the complement identity
and the even-d closed form of theta where it does not, and at the
symmetric equipoint."""

import math

import mpmath
import numpy as np
import pytest

from mp_reference import equipoint, ibeta, theta_star


def test_ibeta_agrees_with_betainc_where_it_converges():
    # shapes log-uniform on [1e-3, 1e3], x drawn from Beta(a, b), so near
    # the mean
    rng = np.random.Generator(np.random.Philox(key=8))
    a, b = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (2, 200)))
    x = rng.beta(a, b)
    with mpmath.workdps(40):
        for lane in zip(a.tolist(), b.tolist(), x.tolist()):
            assert abs(ibeta(*lane) - mpmath.betainc(*lane[:2], 0, lane[2], regularized=True)) <= 1e-30, lane


@pytest.mark.parametrize("scale", [10**4, 10**5, 10**6])
def test_ibeta_complement_identity_at_large_shapes(scale):
    # x = (a+1)/(a+b+2) = 5/8 is the one point where both I_x(a, b) and
    # I_{1-x}(b, a) take the series, so neither side is the other's complement
    a, b = mpmath.mpf(scale - 1), mpmath.mpf(scale * 6 // 10 - 1)
    x = mpmath.mpf(5) / 8
    assert (a + 1) / (a + b + 2) == x
    with mpmath.workdps(40):
        assert abs(ibeta(a, b, x) + ibeta(b, a, 1 - x) - 1) <= 1e-30


@pytest.mark.parametrize("d", [20, 2000, 10**5])
def test_theta_star_at_even_d_is_the_gamma_closed_form(d):
    # sigma* = 1/2 at the split (d/2, d/2), where 1/theta* = 2 I_{1/2}(d/4, d/4 + 1) - 1
    with mpmath.workdps(40):
        closed = mpmath.gamma(mpmath.mpf(d) / 4 + 0.5) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(d) / 4 + 1))
        assert abs(1 / theta_star(d) - closed) <= 1e-30


def test_equipoint_of_equal_shapes_is_one_half():
    with mpmath.workdps(40):
        for a in (0.001, 0.5, 7, 2.5e4):
            assert equipoint(a, a) == mpmath.mpf(1) / 2
