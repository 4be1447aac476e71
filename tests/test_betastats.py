import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectra_theta.betastats import (
    BetaShape,
    binom_tail,
    equipoint,
    equipoint_bounds,
    equipoints,
    median,
    median_bounds,
    median_old_upper_bound,
    ordering_sweep,
    phi_functions,
    phi_hat_monotone_sweep,
    phi_monotone_sweep,
    simmons_sweep,
)
from spectra_theta.errors import DomainError
from spectra_theta.specfun import reg_inc_beta

shapes = st.floats(min_value=0.5, max_value=50.0)

# equipoints of the integer shapes (s, 10 - s), printed to 6 digits
EQUIPOINT_TABLE = {
    1: 0.111223, 2: 0.208955, 3: 0.306089, 4: 0.403069, 5: 0.5,
    6: 0.596931, 7: 0.693911, 8: 0.791045, 9: 0.888777, 10: 1.0,
}


def test_equipoint_table_rows():
    for s, ref in EQUIPOINT_TABLE.items():
        assert equipoint(BetaShape(float(s), float(10 - s))) == pytest.approx(ref, abs=1e-6)


def test_equipoint_degenerate_t_zero():
    assert equipoint(BetaShape(10.0, 0.0)) == 1.0


@given(s=shapes, t=shapes)
def test_equipoint_defining_equation(s, t):
    e = equipoint(BetaShape(s, t))
    residual = reg_inc_beta(s, t + 1.0, e) + reg_inc_beta(s + 1.0, t, e) - 1.0
    assert abs(residual) <= 1e-11


def _equipoint_reference(s: float, t: float, start: float):
    """The equipoint to 40 digits: Newton on the defining sum from ``start``,
    certified by a sign change of the residual across +-1e-30."""
    import mpmath

    ms, mt = mpmath.mpf(s), mpmath.mpf(t)

    def residual(x):
        return (mpmath.betainc(ms, mt + 1, 0, x, regularized=True)
                + mpmath.betainc(ms + 1, mt, 0, x, regularized=True) - 1)

    ln_b = mpmath.log(mpmath.beta(ms, mt))

    def slope(x):
        pdf = mpmath.exp((ms - 1) * mpmath.log(x) + (mt - 1) * mpmath.log1p(-x) - ln_b)
        return (ms + mt) * pdf * ((1 - x) / mt + x / ms)

    x = mpmath.mpf(start)
    for _ in range(4):
        x -= residual(x) / slope(x)
    delta = mpmath.mpf("1e-30")
    assert residual(x - delta) < 0 < residual(x + delta), (s, t)
    return x


def test_equipoint_against_mpmath():
    # The documented 2e-14 absolute, on a grid of real shapes and on
    # half-integer shapes of the Simmons sweep (d <= 400, so shapes up to
    # 200): the worst cases found in a 6000-shape sample, the corners and a
    # seeded sample.
    import mpmath
    import random

    grid = (0.1, 0.5, 1.0, 2.5, 7.0, 30.0, 100.0)
    shapes = [(s, t) for s in grid for t in grid]
    shapes += [(125.0, 53.5), (133.0, 61.0), (96.0, 88.0), (143.0, 46.0),
               (200.0, 0.5), (199.5, 0.5), (100.5, 99.5), (0.5, 0.5)]
    rnd = random.Random(400)
    for _ in range(40):
        d = rnd.randrange(2, 401)
        s = rnd.randrange((d + 1) // 2, d)
        shapes.append((s / 2.0, (d - s) / 2.0))
    roots = equipoints([BetaShape(s, t) for s, t in shapes])
    with mpmath.workdps(40):
        for (s, t), e in zip(shapes, roots):
            assert abs(e - float(_equipoint_reference(s, t, e))) <= 2e-14, (s, t)


def test_equipoint_tiny_roots_absolute_accuracy():
    # Roots far below the residual's noise floor: the documented accuracy is
    # absolute, not relative.  Reference: 60-digit bisection of
    # the defining sum in log x.
    import mpmath

    with mpmath.workdps(60):
        for s, t in ((1e-6, 1e6), (1e-8, 1e8)):
            ms, mt = mpmath.mpf(s), mpmath.mpf(t)

            def residual(x):
                return (mpmath.betainc(ms, mt + 1, 0, x, regularized=True)
                        + mpmath.betainc(ms + 1, mt, 0, x, regularized=True) - 1)

            lo, hi = mpmath.log(mpmath.mpf("1e-300")), mpmath.mpf(0)
            for _ in range(80):
                mid = (lo + hi) / 2
                if residual(mpmath.exp(mid)) < 0:
                    lo = mid
                else:
                    hi = mid
            ref = float(mpmath.exp((lo + hi) / 2))
            # at (1e-8, 1e8) the root (1.5e-15) is below 2e-15: the bound
            # ref/2 keeps a collapse to zero from passing
            assert abs(equipoint(BetaShape(s, t)) - ref) <= min(2e-15, ref / 2), (s, t)


@given(s=shapes, t=shapes)
def test_equipoint_swap_reflection(s, t):
    assert equipoint(BetaShape(s, t)) == pytest.approx(
        1.0 - equipoint(BetaShape(t, s)), abs=1e-12
    )


def test_median_values():
    assert median(BetaShape(3.0, 2.0)) == pytest.approx(0.614272, abs=1e-6)
    assert median(BetaShape(10.0, 7.0)) == pytest.approx(0.591773, abs=1e-6)
    for a in (0.7, 1.0, 5.5):
        assert median(BetaShape(a, a)) == pytest.approx(0.5, abs=1e-11)
    with pytest.raises(DomainError):
        median(BetaShape(2.0, 0.0))


@given(s=shapes, t=shapes)
def test_median_residual(s, t):
    m = median(BetaShape(s, t))
    assert reg_inc_beta(s, t, m) == pytest.approx(0.5, abs=1e-11)


def test_median_bounds_rows():
    assert median_bounds(BetaShape(3.0, 2.0)) == pytest.approx((0.6, 0.64))
    assert median_bounds(BetaShape(10.0, 3.0)) == pytest.approx((0.769231, 0.810651), abs=1e-6)
    lo, hi = median_bounds(BetaShape(4.0, 4.0))
    assert lo == hi == 0.5
    with pytest.raises(DomainError):
        median_bounds(BetaShape(2.0, 0.5))
    with pytest.raises(DomainError):
        median_bounds(BetaShape(1.0, 1.5))  # t > s
    with pytest.raises(DomainError):
        median_bounds(BetaShape(1.4, 1.4))  # total below 3


def test_median_old_upper_bound():
    assert median_old_upper_bound(BetaShape(3.0, 2.0)) == pytest.approx(2.0 / 3.0)


def test_equipoint_bounds_rows():
    assert equipoint_bounds(BetaShape(1.0, 1.0)) == (0.5, 0.5)
    lo, hi = equipoint_bounds(BetaShape(8.0, 2.0))
    assert (lo, hi) == (0.75, 0.8)
    assert lo <= equipoint(BetaShape(8.0, 2.0)) <= hi
    assert equipoint_bounds(BetaShape(5.0, 5.0)) == (0.5, 0.5)
    with pytest.raises(DomainError):
        equipoint_bounds(BetaShape(5.0, 0.0))
    with pytest.raises(DomainError):
        equipoint_bounds(BetaShape(2.0, 3.0))


def test_phi_values():
    _, phi_hat = phi_functions(2.0, 4.0)
    assert phi_hat == pytest.approx(0.6875, abs=1e-12)  # polynomial CDF of Beta(2,3) at 1/2
    _, phi_hat3 = phi_functions(3.0, 4.0)
    assert phi_hat3 >= phi_hat
    # at the symmetric split the equipoint is 1/2
    for d in (4.0, 6.0, 10.0):
        phi, _ = phi_functions(d / 2.0, d)
        assert phi == pytest.approx(reg_inc_beta(d / 2.0, d / 2.0 + 1.0, 0.5), abs=1e-11)
    with pytest.raises(DomainError):
        phi_functions(5.0, 4.0)


def test_phi_refuses_a_d_that_is_not_finite():
    from spectra_theta.betastats import phi, phi_hat

    for fn in (phi, phi_hat):
        for d in (math.inf, math.nan):
            with pytest.raises(DomainError):
                fn(2.0, d)


def test_binom_tail_examples():
    assert binom_tail(0.77, 0, 6) == 1.0
    assert binom_tail(0.5, 3, 5) == pytest.approx(0.5, abs=1e-12)
    assert binom_tail(0.3, 2, 4) == pytest.approx(0.3483, abs=1e-12)  # 1 - (0.7^4 + 4*0.3*0.7^3)
    with pytest.raises(DomainError):
        binom_tail(0.5, 7, 6)


@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    d=st.integers(min_value=1, max_value=25),
    data=st.data(),
)
def test_binom_tail_matches_direct_sum(p, d, data):
    s = data.draw(st.integers(min_value=0, max_value=d))
    direct = sum(
        math.comb(d, k) * p**k * (1.0 - p) ** (d - k) for k in range(s, d + 1)
    )
    assert binom_tail(p, s, d) == pytest.approx(direct, abs=1e-10)


@given(s=st.integers(min_value=1, max_value=25), d=st.integers(min_value=2, max_value=25))
def test_integer_equipoint_balances_binomial(s, d):
    # P_e(S >= s) == P_e(S <= s) at the equipoint of the integer shapes
    if s >= d:
        return
    e = equipoint(BetaShape(float(s), float(d - s)))
    up = binom_tail(e, s, d)
    down = 1.0 - (binom_tail(e, s + 1, d) if s + 1 <= d else 0.0)
    assert up == pytest.approx(down, abs=1e-9)


def test_ordering_chain_on_grid():
    shapes_list = [
        (s / 2.0, t / 2.0)
        for s in range(1, 25)
        for t in range(1, s + 1)
    ]
    assert ordering_sweep(shapes_list) == []


def test_simmons_sweep_small():
    assert simmons_sweep(80) == []


def test_monotone_sweeps_small():
    assert phi_hat_monotone_sweep(30.0, 0.25) == []
    assert phi_monotone_sweep(30.0) == []


def test_simmons_conjecture_sweep_reports_only():
    from spectra_theta.betastats import simmons_conjecture_sweep

    # the real-parameter upper bound is conjectural: the sweep returns
    # findings instead of raising, and on this grid there are none
    findings = simmons_conjecture_sweep(12.0, 0.5)
    assert isinstance(findings, list)
    assert findings == []


def test_median_sandwich_random_grid():
    import random

    rnd = random.Random(7)
    for _ in range(300):
        t = 1.0 + 19.0 * rnd.random()
        s = t + 19.0 * rnd.random()
        if s + t < 3.0:
            continue
        lo, hi = median_bounds(BetaShape(s, t))
        m = median(BetaShape(s, t))
        assert lo - 1e-12 <= m <= hi + 1e-12


def test_bounds_sweeps_equal_the_separate_sweeps(monkeypatch):
    # The combined sweep solves each distinct median and equipoint once.
    # Its rows are perturbed per shape, by up to 0.1 and differently for
    # medians and equipoints, so that every check sees violations: each must
    # come back with the separate sweeps' bits, at the same shape, in the
    # same order.
    import importlib
    import random

    betastats = importlib.import_module("spectra_theta.betastats")
    for name, phase in (("_ibeta_inv_row", 0.0), ("_equipoint_rows", 1.0)):
        solve = getattr(betastats, name)

        def perturbed(*args, _solve=solve, _phase=phase):
            s, t = args[-2:]
            return _solve(*args) + 0.1 * np.sin(7.0 * s + 3.0 * t + _phase)

        monkeypatch.setattr(betastats, name, perturbed)
    rnd = random.Random(11)
    shapes = []
    for _ in range(150):
        t = 1.0 + 9.0 * rnd.random()
        shapes.append((t + 9.0 * rnd.random(), t))
    shapes += [(4.0, 2.0), (4.0, 2.0), (3.0, 3.0)] + shapes[:10]
    combined = betastats.bounds_sweeps(shapes, 8.0, 6.0, 0.5)
    violations = betastats.median_bounds_sweep(shapes) + betastats.ordering_sweep(shapes)
    violations += betastats.equipoint_lower_sweep(8.0, 0.5)
    separate = violations, betastats.simmons_conjecture_sweep(6.0, 0.5)
    assert combined == separate
    checks = {v["check"] for v in combined[0] + combined[1]}
    assert checks == {"median_bounds", "e_le_m", "m_up_le_e", "equipoint_lower",
                      "simmons_conjecture"}


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -0.5])
def test_sweeps_refuse_a_step_that_is_not_finite_and_positive(step):
    from spectra_theta.betastats import equipoint_lower_sweep, simmons_conjecture_sweep

    for sweep in (equipoint_lower_sweep, simmons_conjecture_sweep, phi_hat_monotone_sweep):
        with pytest.raises(DomainError):
            sweep(10.0, step)
