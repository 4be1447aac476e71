import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectra_theta import specfun
from spectra_theta.errors import DomainError, NumericError
from spectra_theta.specfun import (
    BetaArgs,
    ln_beta,
    ln_gamma,
    reg_inc_beta,
    reg_inc_beta_inv,
)

shapes = st.floats(min_value=0.5, max_value=50.0)
points = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


def test_ln_gamma_known_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)
    assert ln_gamma(6.0) == pytest.approx(math.log(120.0), abs=1e-13)


def test_ln_gamma_against_mpmath():
    # The documented bound: absolute 1e-13 where |ln Gamma| is small enough
    # for float64 to carry it, relative 5e-15 elsewhere.
    import mpmath

    x = 1e-3
    with mpmath.workdps(40):
        while x < 1e6:
            ref = float(mpmath.loggamma(x))
            err = abs(ln_gamma(x) - ref)
            assert err <= max(1e-13, 5e-15 * abs(ref)), x
            x *= 1.37


def test_ln_gamma_domain_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ln_gamma(bad)


def test_beta_args_validation():
    with pytest.raises(DomainError):
        BetaArgs(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        BetaArgs(1.0, -2.0, 0.5)
    with pytest.raises(DomainError):
        BetaArgs(1.0, 1.0, 1.5)
    with pytest.raises(DomainError):
        BetaArgs(math.nan, 1.0, 0.5)
    args = BetaArgs(2.0, 3.0, 0.25)
    assert (args.a, args.b, args.p) == (2.0, 3.0, 0.25)


def test_reg_inc_beta_examples():
    # symmetric point
    assert reg_inc_beta(3.0, 3.0, 0.5) == pytest.approx(0.5, abs=1e-12)
    # uniform distribution
    assert reg_inc_beta(1.0, 1.0, 0.37) == pytest.approx(0.37, abs=1e-12)
    # frozen value from adaptive quadrature of (1-x)^3.5 / B(1, 4.5)
    assert reg_inc_beta(1.0, 4.5, 0.5) == pytest.approx(0.955805826175841, abs=1e-10)


def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(2.5, 1.5, 0.0) == 0.0
    assert reg_inc_beta(2.5, 1.5, 1.0) == 1.0


def test_reg_inc_beta_against_scipy():
    from scipy.special import betainc

    import random

    rnd = random.Random(20240815)
    for _ in range(500):
        a = math.exp(rnd.uniform(math.log(0.3), math.log(200.0)))
        b = math.exp(rnd.uniform(math.log(0.3), math.log(200.0)))
        p = rnd.random()
        assert reg_inc_beta(a, b, p) == pytest.approx(float(betainc(a, b, p)), abs=1e-12)


@given(a=shapes, b=shapes, p=points)
def test_reflection_identity(a, b, p):
    assert reg_inc_beta(a, b, p) + reg_inc_beta(b, a, 1.0 - p) == pytest.approx(
        1.0, abs=1e-12
    )


@given(a=shapes, b=shapes, p=points)
def test_recurrence_identity(a, b, p):
    # I_x(s,t+1) + I_x(s+1,t) = 2 I_x(s,t) + (s-t) x^s (1-x)^t / (s t B(s,t))
    lhs = reg_inc_beta(a, b + 1.0, p) + reg_inc_beta(a + 1.0, b, p)
    corr = (a - b) * math.exp(
        a * math.log(p) + b * math.log1p(-p) - ln_beta(a, b)
    ) / (a * b)
    assert lhs == pytest.approx(2.0 * reg_inc_beta(a, b, p) + corr, abs=1e-10)


@given(s=st.integers(min_value=1, max_value=60), t=st.integers(min_value=1, max_value=60), p=points)
def test_pull_out_identity(s, t, p):
    # I_p(s/2+1, t/2) = I_p(s/2, t/2+1) - 2(s+t) p^(s/2) (1-p)^(t/2) / (s t B(s/2,t/2))
    sh, th = s / 2.0, t / 2.0
    pull = 2.0 * (s + t) * math.exp(
        sh * math.log(p) + th * math.log1p(-p) - ln_beta(sh, th)
    ) / (s * t)
    assert reg_inc_beta(sh + 1.0, th, p) == pytest.approx(
        reg_inc_beta(sh, th + 1.0, p) - pull, abs=1e-10
    )


@given(a=shapes, b=shapes, p=st.floats(min_value=1e-6, max_value=1 - 1e-6), q=st.floats(min_value=0.0, max_value=1.0))
def test_monotone_in_p(a, b, p, q):
    lo, hi = min(p, q), max(p, q)
    assert reg_inc_beta(a, b, lo) <= reg_inc_beta(a, b, hi) + 1e-15


def test_inverse_examples():
    assert reg_inc_beta_inv(0.5, 4.0, 4.0) == pytest.approx(0.5, abs=1e-11)
    assert reg_inc_beta_inv(0.37, 1.0, 1.0) == pytest.approx(0.37, abs=1e-11)
    # median of Beta(3, 2), printed to 6 digits in the source table
    assert reg_inc_beta_inv(0.5, 3.0, 2.0) == pytest.approx(0.614272, abs=1e-6)


def test_inverse_endpoints_and_domain():
    assert reg_inc_beta_inv(0.0, 2.0, 3.0) == 0.0
    assert reg_inc_beta_inv(1.0, 2.0, 3.0) == 1.0
    with pytest.raises(DomainError):
        reg_inc_beta_inv(0.5, -1.0, 2.0)
    with pytest.raises(DomainError):
        reg_inc_beta_inv(1.5, 1.0, 2.0)


@given(a=shapes, b=shapes, p=points)
def test_inverse_round_trip(a, b, p):
    # Where the density collapses, float64 cannot carry p through I and
    # back at all (the forward value saturates), so the strict 1e-9 bound
    # is asserted at the information limit ~ forward-error / density and
    # everywhere the density is moderate.
    from spectra_theta.specfun import beta_pdf

    y = reg_inc_beta(a, b, p)
    tol = max(1e-9, 4e-12 / max(beta_pdf(a, b, p), 1e-300))
    assert reg_inc_beta_inv(y, a, b) == pytest.approx(p, abs=min(tol, 1.0))


def test_inverse_round_trip_strict_grid():
    # Where the density at p is moderate (so the forward value actually
    # determines p in float64), the documented 1e-9 holds outright.
    from spectra_theta.specfun import beta_pdf

    checked = 0
    for a in (0.5, 1.0, 2.5, 7.0, 20.0, 50.0):
        for b in (0.5, 1.0, 2.5, 7.0, 20.0, 50.0):
            for p in (0.05, 0.2, 0.37, 0.5, 0.777, 0.95):
                if beta_pdf(a, b, p) < 1e-2:
                    continue
                checked += 1
                y = reg_inc_beta(a, b, p)
                assert reg_inc_beta_inv(y, a, b) == pytest.approx(p, abs=1e-9), (a, b, p)
    assert checked > 100


@given(a=shapes, b=shapes, y=st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_inverse_residual(a, b, y):
    p = reg_inc_beta_inv(y, a, b)
    assert reg_inc_beta(a, b, p) == pytest.approx(y, abs=1e-11)


def _lane_triples() -> np.ndarray:
    """(a, b, p) rows for the row kernel: shapes log-spaced over [1e-3, 1e4]
    with p at 0, 1, at the swap point (a+1)/(a+b+2), one ulp and a little
    to either side of it, and spread over (0, 1); then random triples, half
    of them next to the swap point."""
    rows = []
    for a in np.geomspace(1e-3, 1e4, 8):
        for b in np.geomspace(1e-3, 1e4, 8):
            swap = (a + 1.0) / (a + b + 2.0)
            for p in (0.0, 1.0, swap, np.nextafter(swap, 0.0), np.nextafter(swap, 1.0),
                      0.999 * swap, swap + 1e-3 * (1.0 - swap), 1e-9, 0.5, 1.0 - 1e-9):
                rows.append((a, b, p))
    rng = np.random.Generator(np.random.Philox(key=2014))
    n = 2500
    a = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), n))
    b = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), n))
    swap = (a + 1.0) / (a + b + 2.0)
    near = np.clip(swap * (1.0 + rng.normal(scale=1e-3, size=n)), 0.0, 1.0)
    p = np.where(np.arange(n) % 2 == 0, rng.random(n), near)
    rows.extend(zip(a, b, p))
    return np.array(rows)


def test_row_kernel_is_lane_exact():
    # The row kernel gives every lane the point kernel's bits, in rows longer
    # than the crossover (the numpy loop) and shorter (lane by lane).
    a, b, p = _lane_triples().T
    assert a.size > specfun._ROW_MIN_LANES
    lanes = list(zip(a.tolist(), b.tolist(), p.tolist()))
    points = np.array([specfun._ibeta_point(*lane) for lane in lanes]).T
    expected = {"value": points[0], "density": points[1]}
    short = specfun._ROW_MIN_LANES // 2
    whole = specfun._ibeta_row(a, b, p)
    pieces = [specfun._ibeta_row(a[i:i + short], b[i:i + short], p[i:i + short])
              for i in range(0, a.size, short)]
    pieces = tuple(np.concatenate(output) for output in zip(*pieces))
    for got in (whole, pieces):
        for (name, point), row in zip(expected.items(), got, strict=True):
            assert np.array_equal(row.view(np.uint64), point.view(np.uint64)), name
    ln_b = np.array([ln_beta(x, y) for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(specfun._ln_beta_row(a, b).view(np.uint64), ln_b.view(np.uint64))


@pytest.mark.parametrize(
    "sizes", [(1, 60), (60, 60), (1, 1000), (0, 30), (0, 200, 7)],
    ids=["1+60", "60+60", "1+1000", "empty+30", "empty+200+7"],
)
def test_stacked_rows_equal_separate_rows(sizes):
    # One pass over rows stacked end to end gives each row the bits of its
    # own pass, whether the stack is shorter or longer than the crossover.
    # A last part of 5 lanes broadcasts the scalars a and p.
    a, b, p = _lane_triples().T
    p[::9], p[4::9] = 0.0, 1.0  # endpoint lanes in every part
    starts = np.cumsum((0,) + sizes).tolist()
    triples = [(a[i:j], b[i:j], p[i:j]) for i, j in zip(starts, starts[1:])]
    triples.append((2.5, b[:5], 0.25))
    assert (sum(sizes) + 5 < specfun._ROW_MIN_LANES) == (sizes in ((1, 60), (0, 30)))
    stacked = specfun._ibeta_rows(*triples)
    assert len(stacked) == len(triples)
    for triple, got in zip(triples, stacked):
        for out, alone in zip(got, specfun._ibeta_row(*triple), strict=True):
            assert np.array_equal(out.view(np.uint64), alone.view(np.uint64))


def test_row_kernel_names_the_lane_that_does_not_converge():
    # shape ~1e6: the continued fraction needs more than its 500 steps
    bad = (1902608.6356816522, 1723780.331182298, 0.5246606581572989)
    with pytest.raises(NumericError) as point:
        specfun._ibeta_point(*bad)
    for n in (3, 2 * specfun._ROW_MIN_LANES):
        a, b = np.full(n, 2.5), np.full(n, 4.0)
        p = np.linspace(0.05, 0.95, n)
        a[n // 2], b[n // 2], p[n // 2] = bad
        with pytest.raises(NumericError) as row:
            specfun._ibeta_row(a, b, p)
        assert str(row.value) == str(point.value)


def test_row_kernel_all_endpoint_row():
    # a numpy-path row with no interior lane: the endpoint values, no
    # continued fraction
    n = 200
    assert n >= specfun._ROW_MIN_LANES
    p = np.where(np.arange(n) % 2 == 0, 0.0, 1.0)
    a, b = np.full(n, 2.5), np.full(n, 4.0)
    value, density = specfun._ibeta_row(a, b, p)
    assert np.array_equal(value, p)
    assert np.array_equal(density, np.zeros(n))


# (a, b, p) -> (I_p, density), recorded as float.hex: both sides of the
# symmetry switch at shape scales 0.01 to 2000.
POINT_KERNEL_BITS = {
    (2.5, 7.0, 0.2): ("0x1.785101f986bf3p-2", "0x1.760ee6d179d1fp+1"),
    (2.5, 7.0, 0.37): ("0x1.931ccac34ddcap-1", "0x1.c0fbb74047c54p+0"),
    (0.01, 0.5, 0.3): ("0x1.f3d4d612f7665p-1", "0x1.3e154ab138e50p-5"),
    (0.01, 0.5, 0.9): ("0x1.fcb196c1399f3p-1", "0x1.1b9f30e67318dp-5"),
    (1000.0, 2000.0, 0.333): ("0x1.f1f0145daa168p-2", "0x1.72b1d3bf06959p+5"),
    (1000.0, 2000.0, 0.334): ("0x1.10acf47e01f38p-1", "0x1.714f041b5260cp+5"),
}


def test_point_kernel_keeps_its_recorded_bits():
    # The lane-exact test holds the row kernel to the point kernel; these
    # pins hold the point kernel itself, and the public calls built on it.
    from spectra_theta.betastats import binom_tail
    from spectra_theta.specfun import beta_pdf
    from spectra_theta.theta import theta

    for (a, b, p), (value, density) in POINT_KERNEL_BITS.items():
        assert ((a + 1.0) / (a + b + 2.0) <= p) == (p in (0.37, 0.9, 0.334))
        expected = (float.fromhex(value), float.fromhex(density))
        assert specfun._ibeta_point(a, b, p) == expected
        assert (reg_inc_beta(a, b, p), beta_pdf(a, b, p)) == expected
    assert binom_tail(0.3, 2, 4).hex() == "0x1.64a8c154c985ap-2"
    assert [theta(d).theta.hex() for d in (2, 3, 20)] == [
        "0x1.921fb54442d17p+0", "0x1.bc1cefd2e9e56p+0", "0x1.0410410410400p+2"
    ]


def test_scalar_functions_refuse_what_reg_inc_beta_refuses():
    from spectra_theta.specfun import beta_pdf

    for bad in ((math.nan, 2.0, 0.5), (2.0, 2.0, math.nan), (math.inf, 2.0, 0.5),
                (2.0, 3.0, 1.5), (2.0, 0.0, 0.5)):
        with pytest.raises(DomainError):
            reg_inc_beta(*bad)
        with pytest.raises(DomainError):
            beta_pdf(*bad)
    for bad in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, -math.inf)):
        with pytest.raises(DomainError):
            ln_beta(*bad)
    assert beta_pdf(2.0, 3.0, 0.0) == beta_pdf(2.0, 3.0, 1.0) == 0.0


def test_density_past_the_float_range_is_inf():
    # a < 1 at a subnormal p: the density overflows, I_p does not
    from spectra_theta.specfun import beta_pdf

    assert beta_pdf(1e-5, 1e-5, 5e-324) == math.inf
    value = reg_inc_beta(1e-5, 1e-5, 5e-324)
    assert 0.0 < value < 1.0
    # the same on rows either side of the mapped/numpy crossover, where the
    # numpy path used to raise OverflowError; the finite lanes between the
    # overflowing ones keep their point-kernel bits
    crossover = specfun._ROW_MIN_LANES
    for lanes in (1, crossover - 1, crossover, 200):
        p = np.where(np.arange(lanes) % 3 == 1, 0.3, 5e-324)
        row_value, row_density = specfun._ibeta_row(np.full(lanes, 1e-5), 1e-5, p)
        finite = p == 0.3
        assert np.all(row_value[~finite] == value) and np.all(row_density[~finite] == math.inf)
        point = specfun._ibeta_point(1e-5, 1e-5, 0.3)
        assert np.all(row_value[finite] == point[0]) and np.all(row_density[finite] == point[1])
