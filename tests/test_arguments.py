"""Every count, size and seed argument of the package is refused or accepted
the same way: a Python or numpy integer of at least its least value is
accepted, and anything else (a float, a bool, a string, a smaller value)
raises DomainError.  Every real argument is refused or accepted one way
too: a Python or numpy real number, finite and in its range, is accepted
as the float of the same value, and anything else (NaN, an infinity, a
bool, a string, an array, an int past the float range, a value outside
the range) raises DomainError."""

import dataclasses
import json
import math

import numpy as np
import pytest

from spectra_theta import betastats, dilation, errors, pencil, sphere_oracle
from spectra_theta.cli import main
from spectra_theta.errors import DomainError, ResourceError
from spectra_theta.pencil import MonicPencil, SymTuple, cube_pencil
from spectra_theta.specfun import BetaArgs, beta_pdf, ln_beta, ln_gamma, reg_inc_beta, reg_inc_beta_inv
from spectra_theta.sphere_oracle import McEstimate
from spectra_theta.theta import (
    SignDiag,
    THETA_D_MAX,
    f_g_h,
    h_closed_form,
    kappa_star,
    sigma_st,
    theta,
    theta_even_closed_form,
    theta_odd_bounds,
    thetas,
)

J = SignDiag(2, 1, 1.0, 1.0)
X = SymTuple((0.5 * np.eye(2), 0.25 * np.eye(2)))

# (argument, call with that argument set to v, a valid value, the least valid value)
ARGUMENTS = [
    ("SignDiag.s", lambda v: SignDiag(v, 1, 1.0, 1.0), 2, 1),
    ("SignDiag.t", lambda v: SignDiag(2, v, 1.0, 1.0), 1, 0),
    ("sigma_st.s", lambda v: sigma_st(v, 2), 3, 2),
    ("sigma_st.t", lambda v: sigma_st(3, v), 2, 1),
    ("f_g_h.s", lambda v: f_g_h(v, 1, 0.3), 2, 1),
    ("f_g_h.t", lambda v: f_g_h(2, v, 0.3), 1, 1),
    ("h_closed_form.s", lambda v: h_closed_form(v, 1, 0.3), 2, 1),
    ("h_closed_form.t", lambda v: h_closed_form(2, v, 0.3), 1, 1),
    ("kappa_star.s", lambda v: kappa_star(v, 2), 3, 1),
    ("kappa_star.t", lambda v: kappa_star(3, v), 2, 1),
    ("theta.d", lambda v: theta(v), 5, 1),
    ("thetas.d", lambda v: thetas([3, v]), 5, 1),
    ("theta_even_closed_form.d", lambda v: theta_even_closed_form(v), 4, 2),
    ("theta_odd_bounds.d", lambda v: theta_odd_bounds(v), 5, 3),
    ("binom_tail.s", lambda v: betastats.binom_tail(0.3, v, 5), 2, 0),
    ("binom_tail.d", lambda v: betastats.binom_tail(0.3, 1, v), 5, 1),
    ("simmons_sweep.d_max", lambda v: betastats.simmons_sweep(v), 6, 2),
    ("cube_pencil.g", lambda v: cube_pencil(v), 2, 1),
    ("haar_orthogonal.d", lambda v: pencil.haar_orthogonal(v), 3, 1),
    ("haar_orthogonal.seed", lambda v: pencil.haar_orthogonal(3, seed=v), 5, 0),
    ("random_contraction_tuple.g",
     lambda v: pencil.random_contraction_tuple(v, 2, sphere_oracle._generator(1)), 2, 1),
    ("random_contraction_tuple.n",
     lambda v: pencil.random_contraction_tuple(2, v, sphere_oracle._generator(1)), 2, 1),
    ("cube_relaxation_test.d", lambda v: pencil.cube_relaxation_test(cube_pencil(1), v, 3), 2, 1),
    ("cube_relaxation_test.trials",
     lambda v: pencil.cube_relaxation_test(cube_pencil(1), 2, v), 3, 1),
    ("cube_relaxation_test.seed",
     lambda v: pencil.cube_relaxation_test(cube_pencil(1), 2, 3, seed=v), 5, 0),
    ("sharpness_witness.d", lambda v: pencil.sharpness_witness(v, 2, 10), 2, 2),
    ("sharpness_witness.cells", lambda v: pencil.sharpness_witness(2, v, 10), 2, 1),
    ("sharpness_witness.samples_per_cell", lambda v: pencil.sharpness_witness(2, 2, v), 10, 1),
    ("sharpness_witness.seed", lambda v: pencil.sharpness_witness(2, 2, 10, seed=v), 5, 0),
    ("spin_matrices.g", lambda v: dilation.spin_matrices(v), 3, 2),
    ("spin_tensor_norm.g", lambda v: dilation.spin_tensor_norm(v), 3, 2),
    ("oh_to_spin_choi.g", lambda v: dilation.oh_to_spin_choi(v), 3, 2),
    ("ball_membership.samples",
     lambda v: dilation.ball_membership(X, "min_sampled", samples=v), 16, 1),
    ("ball_membership.seed",
     lambda v: dilation.ball_membership(X, "min_sampled", samples=16, seed=v), 5, 0),
    ("joint_estimates.n",
     lambda v: sphere_oracle.joint_estimates([sphere_oracle.AbsQuadratic(np.eye(2))], v), 100, 1),
    ("joint_estimates.seed",
     lambda v: sphere_oracle.joint_estimates([sphere_oracle.SignOuter(J)], 100, v), 5, 0),
    ("sphere_abs_quadratic_integral.n",
     lambda v: sphere_oracle.sphere_abs_quadratic_integral(np.eye(2), n=v), 100, 1),
    ("SignMoment.coord", lambda v: sphere_oracle.sign_quadratic_moment(J, v, n=100), 2, 1),
    ("SignOuter.pad_zeros", lambda v: sphere_oracle.e_j_matrix(J, n=100, pad_zeros=v), 1, 0),
]


def _plain(value):
    """A result as dicts, lists, arrays and numbers, for np.testing.assert_equal."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("call, valid, least", [entry[1:] for entry in ARGUMENTS],
                         ids=[entry[0] for entry in ARGUMENTS])
def test_an_integer_argument_is_checked_one_way(call, valid, least):
    for bad in (2.5, float(valid), True, np.bool_(True), str(valid), np.array([valid] * 2),
                least - 1):
        with pytest.raises(DomainError):
            call(bad)
    np.testing.assert_equal(_plain(call(np.int64(valid))), _plain(call(valid)))
    call(least)


@pytest.mark.parametrize("call", [
    lambda seed: sphere_oracle._generator(seed),
    lambda seed: errors._uniforms(seed, 4),
    lambda seed: pencil.haar_orthogonal(2, seed=seed),
    lambda seed: sphere_oracle.sphere_abs_quadratic_integral(np.eye(2), n=10, seed=seed),
], ids=["_generator", "_uniforms", "haar_orthogonal", "sphere_abs_quadratic_integral"])
def test_a_seed_lies_in_the_philox_key_range(call):
    for bad in (-1, 2**128, 2**200):
        with pytest.raises(DomainError):
            call(bad)
    call(2**128 - 1)


def test_the_cli_refuses_a_seed_outside_the_key_range(capsys):
    for seed in ("-1", str(2**128), "0x" + "f" * 33):
        assert main(["verify", "oracle", "--samples", "100", "--seed", seed]) == 3
        assert main(["verify", "dilation", "--samples", "5", "--seed", seed]) == 3
        assert main(["verify", "bounds", "--d-max", "3", "--seed", seed]) == 3
        assert capsys.readouterr().err.startswith("error: seed must be ")
    assert main(["verify", "dilation", "--samples", "5", "--seed", str(2**128 - 1)]) == 0
    capsys.readouterr()


def test_the_wire_format_refuses_a_size_that_is_not_a_positive_integer():
    assert pencil.pencil_from_json('{"nu": 1, "g": 1, "coeffs": [[0.5]]}').nu == 1
    for field in ("nu", "g"):
        for value in (1.9, 1.0, True, "1", None, 0, -1):
            text = json.dumps({"nu": 1, "g": 1, "coeffs": [[0.5]], field: value})
            with pytest.raises(DomainError):
                pencil.pencil_from_json(text)
            with pytest.raises(DomainError):
                pencil.symtuple_from_json(text)


BELOW_ZERO = -5e-324  # the float just below 0
ABOVE_ONE = 1.0 + 2.0**-52  # the float just above 1
E = McEstimate(1.0, 0.1, 10, 0)

# (argument, call with that argument set to v, a valid value exact in float32,
#  a valid int, the float just outside the range or None for an unbounded one)
REALS = [
    ("BetaArgs.a", lambda v: BetaArgs(v, 2.0, 0.5), 1.5, 2, 0.0),
    ("BetaArgs.b", lambda v: BetaArgs(2.0, v, 0.5), 1.5, 2, 0.0),
    ("BetaArgs.p", lambda v: BetaArgs(2.0, 3.0, v), 0.25, 1, ABOVE_ONE),
    ("reg_inc_beta.a", lambda v: reg_inc_beta(v, 2.0, 0.5), 1.5, 2, 0.0),
    ("reg_inc_beta.p", lambda v: reg_inc_beta(2.0, 3.0, v), 0.25, 0, BELOW_ZERO),
    ("beta_pdf.b", lambda v: beta_pdf(2.0, v, 0.5), 1.5, 2, 0.0),
    ("reg_inc_beta_inv.y", lambda v: reg_inc_beta_inv(v, 2.0, 3.0), 0.25, 1, ABOVE_ONE),
    ("reg_inc_beta_inv.a", lambda v: reg_inc_beta_inv(0.5, v, 3.0), 1.5, 2, 0.0),
    ("ln_gamma.x", lambda v: ln_gamma(v), 2.5, 3, 0.0),
    ("ln_beta.a", lambda v: ln_beta(v, 2.0), 1.5, 1, 0.0),
    ("ln_beta.b", lambda v: ln_beta(2.0, v), 1.5, 1, 0.0),
    ("BetaShape.s_frak", lambda v: betastats.BetaShape(v, 1.0), 2.5, 3, 0.0),
    ("BetaShape.t_frak", lambda v: betastats.BetaShape(3.0, v), 1.5, 1, BELOW_ZERO),
    ("median.t_frak", lambda v: betastats.median(betastats.BetaShape(3.0, v)), 1.5, 2, BELOW_ZERO),
    ("phi.s_frak", lambda v: betastats.phi(v, 6.0), 3.5, 3, 0.0),
    ("phi.d_frak", lambda v: betastats.phi(3.5, v), 5.5, 5, 3.5),
    ("phi_hat.s_frak", lambda v: betastats.phi_hat(v, 6.0), 3.5, 3, 0.0),
    ("phi_hat.d_frak", lambda v: betastats.phi_hat(3.5, v), 5.5, 5, 3.5),
    ("binom_tail.p", lambda v: betastats.binom_tail(v, 2, 5), 0.25, 1, ABOVE_ONE),
    ("ordering_sweep.s", lambda v: betastats.ordering_sweep([(v, 1.0)]), 2.5, 2, None),
    ("ordering_sweep.t", lambda v: betastats.ordering_sweep([(3.0, v)]), 1.5, 1, None),
    ("phi_monotone_sweep.d_max", lambda v: betastats.phi_monotone_sweep(v), 4.5, 4, 2.0),
    ("phi_hat_monotone_sweep.d_max",
     lambda v: betastats.phi_hat_monotone_sweep(v, 0.5), 4.5, 4, 2.0),
    ("phi_hat_monotone_sweep.step",
     lambda v: betastats.phi_hat_monotone_sweep(4.0, v), 0.5, 1, 0.0),
    ("equipoint_lower_sweep.s_max",
     lambda v: betastats.equipoint_lower_sweep(v, 0.5), 3.5, 3, 0.75),
    ("equipoint_lower_sweep.step", lambda v: betastats.equipoint_lower_sweep(3.0, v), 0.5, 1, 0.0),
    ("simmons_conjecture_sweep.s_max",
     lambda v: betastats.simmons_conjecture_sweep(v, 0.5), 2.5, 2, 0.25),
    ("simmons_conjecture_sweep.step",
     lambda v: betastats.simmons_conjecture_sweep(2.0, v), 0.5, 1, 0.0),
    ("bounds_sweeps.lower_s_max",
     lambda v: betastats.bounds_sweeps([(3.0, 2.0)], v, 2.0, 0.5), 2.5, 2, 0.5),
    ("bounds_sweeps.conjecture_s_max",
     lambda v: betastats.bounds_sweeps([(3.0, 2.0)], 2.0, v, 0.5), 2.5, 2, 0.25),
    ("bounds_sweeps.step",
     lambda v: betastats.bounds_sweeps([(3.0, 2.0)], 2.0, 2.0, v), 0.5, 1, 0.0),
    ("SignDiag.a", lambda v: SignDiag(2, 1, v, 1.0), 1.5, 1, BELOW_ZERO),
    ("SignDiag.b", lambda v: SignDiag(2, 1, 1.0, v), 1.5, 1, BELOW_ZERO),
    ("SignDiag.is_trace_normalized.tol", lambda v: J.is_trace_normalized(v), 0.5, 0, BELOW_ZERO),
    ("f_g_h.p", lambda v: f_g_h(2, 1, v), 0.25, 1, ABOVE_ONE),
    ("h_closed_form.p", lambda v: h_closed_form(2, 1, v), 0.25, 0, BELOW_ZERO),
    ("DilationResult.scale",
     lambda v: dilation.DilationResult(T=X, V=np.eye(2), scale=v), 0.5, 1, 0.0),
    ("ball_membership.oh.tol", lambda v: dilation.ball_membership(X, "oh", tol=v), 0.5, 0,
     BELOW_ZERO),
    ("ball_membership.spin.tol", lambda v: dilation.ball_membership(X, "spin", tol=v), 0.5, 0,
     BELOW_ZERO),
    ("ball_membership.min_sampled.tol",
     lambda v: dilation.ball_membership(X, "min_sampled", tol=v, samples=16), 0.5, 0, BELOW_ZERO),
    ("spin2_extreme.tol", lambda v: dilation.spin2_extreme(X, tol=v), 0.5, 1, BELOW_ZERO),
    ("in_free_spectrahedron.tol",
     lambda v: pencil.in_free_spectrahedron(cube_pencil(2), X, tol=v), 0.5, 0, BELOW_ZERO),
    ("verify_cube_inclusion.tol",
     lambda v: pencil.verify_cube_inclusion(MonicPencil((3.0 * np.eye(1),)), tol=v), 0.5, 1,
     BELOW_ZERO),
    ("cube_relaxation_test.tol",
     lambda v: pencil.cube_relaxation_test(cube_pencil(1), 2, 3, tol=v), 0.5, 0, BELOW_ZERO),
    ("McEstimate.agrees_with.reference", lambda v: E.agrees_with(v), 1.25, 1, None),
    ("McEstimate.agrees_with.n_sigma", lambda v: E.agrees_with(1.25, v), 2.5, 3, BELOW_ZERO),
]


@pytest.mark.parametrize("call, valid, integer, outside", [entry[1:] for entry in REALS],
                         ids=[entry[0] for entry in REALS])
def test_a_real_argument_is_checked_one_way(call, valid, integer, outside):
    bad = [math.nan, math.inf, -math.inf, True, np.bool_(True), str(valid), np.array([valid]),
           10**400, -(10**400)]
    for value in bad + ([] if outside is None else [outside]):
        with pytest.raises(DomainError):
            call(value)
    expected = _plain(call(valid))
    for same in (np.float64(valid), np.float32(valid)):
        np.testing.assert_equal(_plain(call(same)), expected)
    np.testing.assert_equal(_plain(call(integer)), _plain(call(float(integer))))


def test_the_ordering_sweep_refuses_a_nan_shape_it_would_have_skipped():
    # the 0 < t <= s filter is false for a NaN lane, which the sweep used to
    # drop unchecked, returning no violation
    for shape in ((math.nan, 1.0), (1.0, math.nan), ("3", 1.0)):
        with pytest.raises(DomainError):
            betastats.ordering_sweep([shape])
        with pytest.raises(DomainError):
            betastats.bounds_sweeps([(3.0, 2.0), shape], 2.0, 2.0, 0.5)
    # a finite shape outside 0 < t <= s is still skipped by the filter
    assert betastats.ordering_sweep([(1.0, 2.0), (-1.0, -2.0)]) == []


def test_an_unchecked_real_no_longer_decides_a_comparison():
    # an infinite n_sigma or tol accepted every value, a NaN one rejected every value
    for n_sigma in (math.inf, math.nan):
        with pytest.raises(DomainError, match="n_sigma must be finite and nonnegative"):
            E.agrees_with(5.0, n_sigma)
    with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
        SignDiag(2, 1, 5.0, 1.0).is_trace_normalized(math.inf)
    assert not E.agrees_with(5.0, 3.0) and E.agrees_with(1.25, 3.0)


def test_h_closed_form_checks_its_arguments():
    for call in (lambda: h_closed_form(2, 1, math.nan), lambda: h_closed_form(-1, 1, 0.5),
                 lambda: h_closed_form(2, 1, 1.5), lambda: h_closed_form(2, 1, -0.5)):
        with pytest.raises(DomainError):
            call()
    assert h_closed_form(2, 1, 0.0) == h_closed_form(2, 1, 1.0) == 0.0


def test_the_cli_refuses_a_d_max_past_the_float_range(capsys):
    huge = str(10**400)
    assert main(["verify", "monotone", "--d-max", huge]) == 3
    assert capsys.readouterr().err.startswith("error: sweep bound must be finite and real, got ")


@pytest.mark.parametrize("call", [
    lambda: dilation.spin_matrices(10**400),
    lambda: dilation.spin_tensor_norm(10**400),
    lambda: dilation.oh_to_spin_choi(10**400),
    lambda: theta_even_closed_form(10**400 + 1),
    lambda: theta_odd_bounds(10**400),
    lambda: theta_even_closed_form(10**400),
    lambda: theta_odd_bounds(10**400 + 1),
    lambda: theta_odd_bounds(4_000_001),
    lambda: theta_odd_bounds(THETA_D_MAX + 1),
    lambda: betastats.binom_tail(0.5, 1, 10**400),
    lambda: sphere_oracle.SignMoment(J, 10**400),
    lambda: MonicPencil(tuple(np.eye(1 + k % 2) for k in range(5001))),
    lambda: sigma_st(10**400, 1),
    lambda: kappa_star(10**400, 1),
    lambda: f_g_h(10**400, 1, 0.5),
    lambda: h_closed_form(10**400, 1, 0.5),
    lambda: SignDiag(10**400, 1, 1.0, 1.0),
    lambda: SignDiag(1, 10**400, 1.0, 1.0),
    lambda: kappa_star(10**7, 10**7),
], ids=["spin_matrices", "spin_tensor_norm", "oh_to_spin_choi", "theta_even_closed_form",
        "theta_odd_bounds", "theta_even_closed_form.even", "theta_odd_bounds.odd",
        "theta_odd_bounds.4000001", "theta_odd_bounds.cap",
        "binom_tail.d", "SignMoment.coord", "matrix_sizes", "sigma_st.s", "kappa_star.s",
        "f_g_h.s", "h_closed_form.s", "SignDiag.s", "SignDiag.t", "kappa_star.10**7"])
def test_a_refusal_prints_a_short_value(call):
    with pytest.raises((DomainError, ResourceError)) as refusal:
        call()
    assert len(str(refusal.value)) <= 120


def test_the_closed_forms_of_theta_keep_its_cap():
    # they read d through theta's one check: a d of the right parity past
    # THETA_D_MAX is refused, and one at the cap still has its value
    for call in (lambda: theta_odd_bounds(THETA_D_MAX + 1),
                 lambda: theta_even_closed_form(THETA_D_MAX + 2)):
        with pytest.raises(DomainError, match=f"theta capped at d <= {THETA_D_MAX}, got "):
            call()
    assert all(math.isfinite(v) and v > 0.0 for v in theta_odd_bounds(99_999))
    assert 0.0 < theta_even_closed_form(100_000) < 1.0


def test_a_split_past_the_cap_of_theta_is_refused():
    # the split functions read (s, t) through one check, which refuses
    # s + t > THETA_D_MAX as theta refuses such a d; a split at the cap still
    # has its value (kappa_star(10**7, 10**7) used to raise NumericError from
    # the continued fraction, and s = 10**400 a raw OverflowError)
    half = THETA_D_MAX // 2
    for call in (lambda: sigma_st(half + 1, half), lambda: kappa_star(half, half + 1),
                 lambda: f_g_h(half + 1, half, 0.5), lambda: h_closed_form(half, half + 1, 0.5),
                 lambda: SignDiag(THETA_D_MAX + 1, 0, 1.0, 0.0), lambda: SignDiag(1, THETA_D_MAX, 1.0, 1.0)):
        with pytest.raises(DomainError, match=f"theta capped at d <= {THETA_D_MAX}, got {THETA_D_MAX + 1}"):
            call()
    assert sigma_st(half, half) == 0.5 and 0.5 < sigma_st(THETA_D_MAX - 1, 1) < 1.0
    assert 0.0 < kappa_star(half, half)[0] < 1.0 and 0.0 < kappa_star(1, THETA_D_MAX - 1)[0] < 1.0
    assert all(0.0 < v < 1.0 for v in f_g_h(half, half, 0.5))
    assert 0.0 < h_closed_form(half, half, 0.5) < 1.0
    assert SignDiag(THETA_D_MAX, 0, 1.0, 0.0).d == THETA_D_MAX


@pytest.mark.parametrize("call, shown", [
    (lambda: thetas(5), "ds must be iterable, got 5"),
    (lambda: thetas(None), "ds must be iterable, got None"),
    (lambda: betastats.equipoints([(2.0, 1.0)]), "BetaShape, got (2.0, 1.0)"),
    (lambda: betastats.medians([(2.0, 1.0)]), "BetaShape, got (2.0, 1.0)"),
    (lambda: betastats.median_bounds_sweep(5), "shapes must be iterable, got 5"),
    (lambda: betastats.ordering_sweep(None), "shapes must be iterable, got None"),
    (lambda: sphere_oracle.joint_estimates(None, 10), "requests must be iterable, got None"),
    (lambda: sphere_oracle.joint_estimates([(2.0, 1.0)], 10), "SignOuter, got (2.0, 1.0)"),
    (lambda: SymTuple(5), "matrices must be iterable, got 5"),
    (lambda: MonicPencil(None), "matrices must be iterable, got None"),
], ids=["thetas.int", "thetas.none", "equipoints.tuple", "medians.tuple",
        "median_bounds_sweep.int", "ordering_sweep.none", "joint_estimates.none",
        "joint_estimates.tuple", "SymTuple.int", "MonicPencil.none"])
def test_a_batch_argument_is_checked_one_way(call, shown):
    # every batch entry point takes any iterable of its items and refuses
    # anything else with DomainError (errors._require_items), never TypeError
    # or AttributeError
    with pytest.raises(DomainError) as refusal:
        call()
    assert shown in str(refusal.value) and len(str(refusal.value)) <= 120


def test_a_batch_argument_may_be_any_iterable():
    shapes = [betastats.BetaShape(3.0, 2.0), betastats.BetaShape(4.0, 1.0)]
    assert [r.theta for r in thetas(iter([3, 4]))] == [theta(3).theta, theta(4).theta]
    assert betastats.medians(iter(shapes)) == betastats.medians(shapes)
    assert betastats.equipoints(tuple(shapes)) == betastats.equipoints(shapes)
    assert betastats.ordering_sweep(iter([(3.0, 2.0)])) == betastats.ordering_sweep([(3.0, 2.0)]) == []

    class Reads:  # an iterable that counts how often it is read
        def __init__(self, items):
            self.items, self.reads = items, 0

        def __iter__(self):
            self.reads += 1
            return iter(self.items)

    # one batch feeds both the median and the ordering checks: it is read
    # once, so a generator reaches both
    pairs = [(3.0, 2.0), (4.0, 1.0)]
    batch = Reads(pairs)
    assert betastats.bounds_sweeps(batch, 2.0, 1.0, 0.5) == betastats.bounds_sweeps(pairs, 2.0, 1.0, 0.5)
    assert batch.reads == 1
    assert betastats.bounds_sweeps(iter(pairs), 2.0, 1.0, 0.5) == betastats.bounds_sweeps(pairs, 2.0, 1.0, 0.5)
