import math
import tracemalloc

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


def _one_lane_calls(a, b, p) -> np.ndarray:
    """Each lane's (I_p, density) from its own one-lane ``_ibeta_row`` call,
    whose one interior lane runs the scalar ``_beta_cf``: the per-lane
    reference that holds ``_beta_cf_row`` to ``_beta_cf`` bit for bit."""
    lanes = zip(np.ravel(a).tolist(), np.ravel(b).tolist(), np.ravel(p).tolist())
    return np.array([[out[0] for out in specfun._ibeta_row(*lane)] for lane in lanes]).T


def test_row_kernel_is_lane_exact():
    # The row kernel gives every lane the bits of its one-lane call, in rows
    # longer than the crossover (the numpy loop) and shorter (the scalar loop
    # lane by lane).
    a, b, p = _lane_triples().T
    assert a.size > specfun._ROW_MIN_LANES
    points = _one_lane_calls(a, b, p)
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


def test_row_kernel_is_lane_exact_across_layouts():
    # The kernel's logs and exps are numpy's elementwise ufuncs, so a lane's
    # bits must not depend on how its row sits in memory: rows that are
    # strided views (columns of one block), reversed views or broadcast
    # scalars give every lane the bits of its one-lane call.
    a, b, p = _lane_triples().T
    expected = _one_lane_calls(a, b, p)
    n = specfun._ROW_MIN_LANES // 2
    layouts = {
        "strided": (np.column_stack([a, b, p]).T, expected),
        "reversed": ((a[::-1], b[::-1], p[::-1]), expected[:, ::-1]),
        "every other": ((a[::2], b[::2], p[::2]), expected[:, ::2]),
        "scalar a": ((2.5, b, p), _one_lane_calls(np.full(a.size, 2.5), b, p)),
        "scalar p": ((a, b, 0.3), _one_lane_calls(a, b, np.full(a.size, 0.3))),
        "scalar a and b, short": ((0.75, 40.0, p[:n]), _one_lane_calls(np.full(n, 0.75), np.full(n, 40.0), p[:n])),
    }
    for name, (triple, points) in layouts.items():
        for row, point in zip(specfun._ibeta_row(*triple), points, strict=True):
            assert np.array_equal(row.view(np.uint64), point.view(np.uint64)), name


def test_ln_beta_row_has_the_bits_of_ln_beta_on_short_rows():
    # below the crossover the ln B row maps the memo instead of sorting; the
    # kappa_* pass of theta(61) reads such a row on its numpy path
    a, b, _ = _lane_triples().T
    for n in (0, 1, specfun._ROW_MIN_LANES - 1, specfun._ROW_MIN_LANES):
        expected = np.array([ln_beta(x, y) for x, y in zip(a[:n].tolist(), b[:n].tolist())])
        row = specfun._ln_beta_row(a[:n], b[:n])
        assert np.array_equal(row.view(np.uint64), expected.view(np.uint64)), n


def _stack_lanes() -> tuple[np.ndarray, ...]:
    """``_lane_triples`` with endpoint lanes in every part of a stack."""
    a, b, p = _lane_triples().T
    p[::9], p[4::9] = 0.0, 1.0
    return a, b, p


def _stack_with_interior(interior: int) -> tuple[int, int]:
    """Two parts of ``_stack_lanes`` whose lanes, with the 5 broadcast ones,
    number ``interior`` inside (0, 1)."""
    _, _, p = _stack_lanes()
    inside = np.cumsum((0.0 < p) & (p < 1.0))
    n = int(np.searchsorted(inside, interior - 5)) + 1
    assert inside[n - 1] + 5 == interior
    return n // 2, n - n // 2


@pytest.mark.parametrize(
    "sizes", [(1, 60), (60, 60), (1, 1000), (0, 30), (0, 200, 7),
              _stack_with_interior(specfun._ROW_MIN_LANES - 1), _stack_with_interior(specfun._ROW_MIN_LANES)],
    ids=["1+60", "60+60", "1+1000", "empty+30", "empty+200+7", "below-crossover", "at-crossover"],
)
def test_stacked_rows_equal_separate_rows(sizes):
    # One pass over rows stacked end to end gives each row the bits of its
    # own pass, whether the stack has fewer or more interior lanes than the
    # crossover (the last two stacks have one fewer, and as many).  A last
    # part of 5 lanes broadcasts the scalars a and p.
    a, b, p = _stack_lanes()
    starts = np.cumsum((0,) + sizes).tolist()
    triples = [(a[i:j], b[i:j], p[i:j]) for i, j in zip(starts, starts[1:])]
    triples.append((2.5, b[:5], 0.25))
    stacked = specfun._ibeta_rows(*triples)
    assert len(stacked) == len(triples)
    for triple, got in zip(triples, stacked):
        for out, alone in zip(got, specfun._ibeta_row(*triple), strict=True):
            assert np.array_equal(out.view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("interior", [specfun._ROW_MIN_LANES - 1, specfun._ROW_MIN_LANES])
def test_crossover_counts_interior_lanes(interior, monkeypatch):
    # The Lentz loop is chosen by the interior lanes, 0 < p < 1, not by the
    # row's length: a row of twice the crossover whose other lanes sit at
    # p = 0 or 1 runs the scalar loop one lane short of the crossover and the
    # numpy loop at it.  Either way every lane has its one-lane call's bits.
    n = 2 * specfun._ROW_MIN_LANES
    triples = _lane_triples()
    a, b, p = triples[(0.0 < triples[:, 2]) & (triples[:, 2] < 1.0)][-n:].T
    ends = np.setdiff1d(np.arange(n), np.linspace(0, n - 1, interior).astype(int))
    p[ends] = np.arange(ends.size) % 2
    assert np.count_nonzero((0.0 < p) & (p < 1.0)) == interior
    expected = _one_lane_calls(a, b, p)
    loops, row_loop = [], specfun._beta_cf_row
    monkeypatch.setattr(specfun, "_beta_cf_row", lambda *rows: loops.append(rows[0].size) or row_loop(*rows))
    value, density = specfun._ibeta_row(a, b, p)
    assert loops == ([] if interior < specfun._ROW_MIN_LANES else [interior])
    assert np.array_equal(value.view(np.uint64), expected[0].view(np.uint64))
    assert np.array_equal(density.view(np.uint64), expected[1].view(np.uint64))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_row_kernel_names_the_lane_that_does_not_converge(where):
    # shape ~1e6: the continued fraction needs more than its 500 steps
    bad = (1902608.6356816522, 1723780.331182298, 0.5246606581572989)
    with pytest.raises(NumericError) as point:
        specfun._ibeta_row(*bad)
    for n in (3, 2 * specfun._ROW_MIN_LANES):
        a, b = np.full(n, 2.5), np.full(n, 4.0)
        p = np.linspace(0.05, 0.95, n)
        i = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        a[i], b[i], p[i] = bad
        with pytest.raises(NumericError) as row:
            specfun._ibeta_row(a, b, p)
        assert str(row.value) == str(point.value)


def test_lentz_guard_keeps_the_row_kernel_lane_exact():
    # At (a, b, x) = (1, 3, 1/2), passed straight to the Lentz loops, the
    # first denominator 1 - (a + b) x / (a + 1) is exactly 0, so the guard
    # fires at the kernels' own tiny; both loops give 4.666666666666666.
    # Mixed among ordinary lanes in a row above the crossover, the numpy loop
    # still gives every lane the scalar loop's bits.
    a, b, p = _lane_triples().T
    inner = (0.0 < p) & (p < 1.0)
    a, b, p = a[inner], b[inner], p[inner]
    swap = ~(p < (a + 1.0) / (a + b + 2.0))
    a, b, x = np.where(swap, b, a), np.where(swap, a, b), np.where(swap, 1.0 - p, p)
    a[::7], b[::7], x[::7] = 1.0, 3.0, 0.5
    assert a.size > specfun._ROW_MIN_LANES
    row = specfun._beta_cf_row(a, b, x)
    lanes = np.array([specfun._beta_cf(*lane) for lane in zip(a.tolist(), b.tolist(), x.tolist())])
    assert np.array_equal(row.view(np.uint64), lanes.view(np.uint64))
    assert np.all(row[::7] == 4.666666666666666)
    # a finished lane is NaN: the guard must still see the open lanes beside it
    rows = np.array([[np.nan, 0.0, 0.5], [-0.0, np.nan, -0.5]])
    specfun._cf_guard(rows, 1e-300)
    assert np.array_equal(rows, [[np.nan, 1e-300, 0.5], [1e-300, np.nan, -0.5]], equal_nan=True)


def _ulps_from(base: float, k: int) -> float:
    """The double k steps of the binary64 grid from ``base``."""
    return float((np.array([base]).view(np.int64) + k).view(np.float64)[0])


@given(st.one_of(
    st.builds(_ulps_from, st.sampled_from([0.5, 1.0, 2.0]), st.integers(-2**20, 2**20)),
    st.floats(allow_nan=True, allow_infinity=True),
))
def test_the_lentz_stop_and_guard_test_what_binary64_can_show(v):
    # The loops' stop and guard are exact comparisons: |delta - 1| < 1e-16
    # holds only at delta = 1, and 1 - v, the form of every guarded value,
    # is below 1e-300 in magnitude only where it is 0 (specfun's comment).
    assert (abs(v - 1.0) < 1e-16) == (v == 1.0)
    assert (abs(1.0 - v) < 1e-300) == (1.0 - v == 0.0)
    assert (abs(1.0 + v) < 1e-300) == (1.0 + v == 0.0)


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
# symmetry switch at shape scales 0.01 to 2000.  Two moved when the kernel's
# logs and exps became numpy's, against 40-digit mpmath: I_p at
# (0.01, 0.5, 0.3) ...665 -> ...663 (-2.60e-15 -> -2.82e-15), the density at
# (1000, 2000, 0.333) ...06959 -> ...0638f (-3.04e-12 -> -3.27e-12 relative,
# the ulp of ln B near 2e4 at these shapes).
POINT_KERNEL_BITS = {
    (2.5, 7.0, 0.2): ("0x1.785101f986bf3p-2", "0x1.760ee6d179d1fp+1"),
    (2.5, 7.0, 0.37): ("0x1.931ccac34ddcap-1", "0x1.c0fbb74047c54p+0"),
    (0.01, 0.5, 0.3): ("0x1.f3d4d612f7663p-1", "0x1.3e154ab138e50p-5"),
    (0.01, 0.5, 0.9): ("0x1.fcb196c1399f3p-1", "0x1.1b9f30e67318dp-5"),
    (1000.0, 2000.0, 0.333): ("0x1.f1f0145daa168p-2", "0x1.72b1d3bf0638fp+5"),
    (1000.0, 2000.0, 0.334): ("0x1.10acf47e01f38p-1", "0x1.714f041b5260cp+5"),
}


def test_point_kernel_keeps_its_recorded_bits():
    # The lane-exact test holds every lane of a row to its one-lane call;
    # these pins hold the one-lane call itself, and the public calls built
    # on it.
    from spectra_theta.betastats import binom_tail
    from spectra_theta.specfun import beta_pdf
    from spectra_theta.theta import theta

    for (a, b, p), (value, density) in POINT_KERNEL_BITS.items():
        assert ((a + 1.0) / (a + b + 2.0) <= p) == (p in (0.37, 0.9, 0.334))
        expected = (float.fromhex(value), float.fromhex(density))
        assert tuple(out.item() for out in specfun._ibeta_row(a, b, p)) == expected
        assert (reg_inc_beta(a, b, p), beta_pdf(a, b, p)) == expected
    assert binom_tail(0.3, 2, 4).hex() == "0x1.64a8c154c985ap-2"
    assert [theta(d).theta.hex() for d in (2, 3, 20)] == [
        "0x1.921fb54442d17p+0", "0x1.bc1cefd2e9e56p+0", "0x1.0410410410400p+2"
    ]


def test_row_kernel_against_mpmath():
    # 1,500 seeded lanes, shapes log-uniform on [0.5, 200] and p drawn from
    # Beta(a, b), as ``scripts/mpmath_roots.py --kernel 1500 --seed 30`` draws
    # them.  The worst |I_p - ref| and relative density error stay within
    # those of the kernel with per-lane math logs and exps, on this sample
    # 1.7394e-13 and 3.8596e-13 (lanes 663 and 605; numpy's ufuncs give the
    # same two worsts).
    import mpmath

    from mp_reference import density, ibeta, kernel_lanes

    a, b, p = kernel_lanes(1500, 30)
    value, pdf = specfun._ibeta_row(a, b, p)
    with mpmath.workdps(40):
        lanes = list(zip(*(row.tolist() for row in (a, b, p, value, pdf))))
        worst_value = max(abs(float(v - ibeta(x, y, z))) for x, y, z, v, _ in lanes)
        worst_density = max(abs(float(f / density(x, y, z) - 1)) for x, y, z, _, f in lanes)
    assert worst_value <= 1.74e-13
    assert worst_density <= 3.86e-13


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
    # the same on rows either side of the scalar/numpy loop crossover, where
    # the numpy path used to raise OverflowError; the finite lanes between
    # the overflowing ones keep the bits of their one-lane call
    crossover = specfun._ROW_MIN_LANES
    for lanes in (1, crossover - 1, crossover, 200):
        p = np.where(np.arange(lanes) % 3 == 1, 0.3, 5e-324)
        row_value, row_density = specfun._ibeta_row(np.full(lanes, 1e-5), 1e-5, p)
        finite = p == 0.3
        assert np.all(row_value[~finite] == value) and np.all(row_density[~finite] == math.inf)
        point = _one_lane_calls(1e-5, 1e-5, 0.3)[:, 0]
        assert np.all(row_value[finite] == point[0]) and np.all(row_density[finite] == point[1])


def test_inverse_row_peak_memory_per_lane():
    # the continued fraction compacts its lane arrays one at a time, and the
    # root finder drops its bracket-end residual before its loop: the peak
    # was about 404 B per lane when all ten arrays were rebuilt at once
    rng = np.random.Generator(np.random.Philox(key=8))
    n = 4_000
    y, a, b = rng.random(n), 0.5 + 5.0 * rng.random(n), 0.5 + 5.0 * rng.random(n)
    specfun._ibeta_inv_row(y[:200], a[:200], b[:200])  # first-call allocations
    tracemalloc.start()
    try:
        p = specfun._ibeta_inv_row(y, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.abs(specfun._ibeta_row(a, b, p)[0] - y) <= 1e-11)
    assert peak / n <= 400.0
