"""Every count, size and seed argument of the package is refused or accepted
the same way: a Python or numpy integer of at least its least value is
accepted, and anything else (a float, a bool, a string, a smaller value)
raises DomainError."""

import dataclasses
import json

import numpy as np
import pytest

from spectra_theta import betastats, dilation, pencil, sphere_oracle
from spectra_theta.cli import main
from spectra_theta.errors import DomainError
from spectra_theta.pencil import SymTuple, cube_pencil
from spectra_theta.theta import (
    SignDiag,
    f_g_h,
    kappa_star,
    sigma_st,
    theta,
    theta_even_closed_form,
    theta_odd_bounds,
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
    ("kappa_star.s", lambda v: kappa_star(v, 2), 3, 1),
    ("kappa_star.t", lambda v: kappa_star(3, v), 2, 1),
    ("theta.d", lambda v: theta(v), 5, 1),
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
    lambda seed: pencil.haar_orthogonal(2, seed=seed),
    lambda seed: sphere_oracle.sphere_abs_quadratic_integral(np.eye(2), n=10, seed=seed),
], ids=["_generator", "haar_orthogonal", "sphere_abs_quadratic_integral"])
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
