import inspect
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

import spectra_theta
from spectra_theta import sphere_oracle
from spectra_theta.dilation import ball_membership, defect_sqrt, spin2_extreme
from spectra_theta.errors import DomainError, NumericError, ResourceError
from spectra_theta.pencil import (
    CubeRelaxationReport,
    MonicPencil,
    SymTuple,
    _contraction_stack,
    _eigvalsh,
    _haar_gram_schmidt,
    cube_pencil,
    cube_relaxation_test,
    evaluate,
    evaluate_scalar,
    haar_orthogonal,
    in_free_spectrahedron,
    min_eigenvalue,
    pencil_from_json,
    pencil_to_json,
    random_contraction_tuple,
    sharpness_witness,
    symtuple_from_json,
    symtuple_to_json,
    verify_cube_inclusion,
)
from spectra_theta.sphere_oracle import _generator, sphere_abs_quadratic_integral
from spectra_theta.theta import SignDiag, kappa_star, theta

B1 = np.diag([1.0, -1.0])
B2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def _sign_fixed_qr(z):
    # the LAPACK route to Haar matrices, kept as a reference: the Q of each
    # QR with the signs of R's diagonal folded in (Mezzadri 2007)
    q, r = np.linalg.qr(z)
    signs = np.sign(np.einsum("nii->ni", r))
    signs[signs == 0.0] = 1.0
    return q * signs[:, None, :]


def _kron_by_hand(a, x):
    na, nx = a.shape[0], x.shape[0]
    out = np.zeros((na * nx, na * nx))
    for i in range(na):
        for j in range(na):
            for k in range(nx):
                for l in range(nx):
                    out[i * nx + k, j * nx + l] = a[i, j] * x[k, l]
    return out


def test_evaluate_zero_tuple_is_identity():
    L = MonicPencil((B1, B2))
    X = SymTuple((np.zeros((3, 3)), np.zeros((3, 3))))
    assert np.array_equal(evaluate(L, X), np.eye(6))


def test_evaluate_scalar_case():
    L = MonicPencil((np.array([[2.0]]), np.array([[-0.5]])))
    X = SymTuple((np.array([[0.3]]), np.array([[0.4]])))
    assert evaluate(L, X) == pytest.approx(np.array([[1.0 - 2.0 * 0.3 + 0.5 * 0.4]]))


def test_evaluate_matches_entrywise_kronecker():
    rng = _generator(5)
    a = rng.standard_normal((3, 3))
    x = rng.standard_normal((2, 2))
    a = 0.5 * (a + a.T)
    x = 0.5 * (x + x.T)
    L = MonicPencil((a,))
    X = SymTuple((x,))
    assert evaluate(L, X) == pytest.approx(np.eye(6) - _kron_by_hand(a, x), abs=1e-14)


def test_evaluate_arity_mismatch():
    with pytest.raises(DomainError):
        evaluate(MonicPencil((B1,)), SymTuple((B1, B2)))


def test_sharp_two_example_exact():
    # lambda_max of sum B_j (x) B_j is exactly 2; the pencil survives
    # scaling 2 but no less
    L = MonicPencil((B1, B2))
    X = SymTuple((B1, B2))
    total = np.eye(4) - evaluate(L, X)
    lam_max = float(np.linalg.eigvalsh(total)[-1])
    assert lam_max == pytest.approx(2.0, abs=1e-10)
    assert min_eigenvalue(2.0 * np.eye(4) - total) == pytest.approx(0.0, abs=1e-10)
    for rho in (1.99, 1.5, 1.0):
        assert min_eigenvalue(rho * np.eye(4) - total) < 0.0


def test_membership_basics():
    L = cube_pencil(3)
    zero = SymTuple(tuple(np.zeros((2, 2)) for _ in range(3)))
    assert in_free_spectrahedron(L, zero)
    contractions = SymTuple((np.diag([0.9, -0.4]), np.diag([0.2, 0.1]), 0.5 * np.eye(2)))
    assert in_free_spectrahedron(L, contractions)
    eps = 1e-3
    too_big = SymTuple((np.diag([1.0 + eps, 0.0]), np.zeros((2, 2)), np.zeros((2, 2))))
    assert not in_free_spectrahedron(L, too_big, tol=1e-6)
    with pytest.raises(DomainError):
        in_free_spectrahedron(L, zero, tol=-1.0)


def test_cube_pencil_geometry():
    c1 = cube_pencil(1)
    assert np.array_equal(c1.coeffs[0], np.diag([1.0, -1.0]))
    c2 = cube_pencil(2)
    assert c2.nu == 4
    assert min_eigenvalue(evaluate_scalar(c2, [1.0, 1.0])) == pytest.approx(0.0, abs=1e-14)
    assert min_eigenvalue(evaluate_scalar(c2, [1.01, 0.0])) < 0.0
    for g in (1, 2, 3):
        cp = cube_pencil(g)
        for bits in range(1 << g):
            vertex = [1.0 if bits & (1 << j) else -1.0 for j in range(g)]
            assert min_eigenvalue(evaluate_scalar(cp, vertex)) == pytest.approx(0.0, abs=1e-14)
            grown = [1.001 * v for v in vertex]
            assert min_eigenvalue(evaluate_scalar(cp, grown)) < 0.0


def test_verify_cube_inclusion():
    assert verify_cube_inclusion(cube_pencil(3))
    shrunk = MonicPencil(tuple(2.0 * c for c in cube_pencil(2).coeffs))
    assert not verify_cube_inclusion(shrunk)
    with pytest.raises(ResourceError):
        verify_cube_inclusion(MonicPencil(tuple(np.zeros((1, 1)) for _ in range(21))))


def test_haar_orthogonal():
    u = haar_orthogonal(8, seed=3)
    assert np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-12
    assert haar_orthogonal(1, seed=5)[0, 0] in (-1.0, 1.0)


def test_haar_first_column_mean_vanishes():
    rng = _generator(17)
    total = np.zeros(3)
    n = 100_000
    done = 0
    while done < n:
        m = min(20_000, n - done)
        total += _haar_gram_schmidt(rng.standard_normal((m, 3, 3)))[:, :, 0].sum(axis=0)
        done += m
    # each column entry has variance 1/d, so the sample mean has std 1/sqrt(n d)
    assert np.max(np.abs(total / n)) <= 4.0 / math.sqrt(n * 3)


@pytest.mark.parametrize("d", range(1, 7))
def test_haar_gram_schmidt_is_the_positive_diagonal_qr(d):
    z = _generator(100 + d).standard_normal((2000, d, d))
    q = _haar_gram_schmidt(z)
    assert np.max(np.abs(q.swapaxes(1, 2) @ q - np.eye(d))) <= 1e-14 * d
    r = q.swapaxes(1, 2) @ z
    below = np.max(np.abs(np.tril(r, -1)), axis=(1, 2))
    assert np.all(below <= 1e-12 * np.linalg.norm(z, axis=(1, 2)))
    assert np.all(np.einsum("nii->ni", r) > 0.0)
    # the unique QR factor with a positive R diagonal: the LAPACK route's Q
    assert np.max(np.abs(q - _sign_fixed_qr(z))) <= 1e-12


@pytest.mark.parametrize("column", [0, 1])
def test_haar_gram_schmidt_refuses_a_zero_column(column):
    z = _generator(7).standard_normal((5, 3, 3))
    z[2, :, column] = 0.0
    with pytest.raises(NumericError):
        _haar_gram_schmidt(z)


def test_cube_relaxation_on_cube_pencil():
    report = cube_relaxation_test(cube_pencil(2), d=3, trials=25, seed=11)
    assert isinstance(report, CubeRelaxationReport)
    assert report.passed
    assert report.violations == ()
    # identity inclusion: scaling 1 always feasible for contractions
    assert report.tightest_scale >= 1.0 - 1e-12
    assert report.min_margin >= -1e-9


def test_cube_relaxation_margin_matches_direct_spectrum():
    # min_margin comes from one spectrum per trial, 1 - lambda_max(S)/theta;
    # replay the same tuples and take L_B(X/theta)'s bottom eigenvalue.
    B = MonicPencil((0.7 * B1, 0.7 * B2))
    d, trials, seed = 3, 20, 5
    report = cube_relaxation_test(B, d=d, trials=trials, seed=seed)
    th = theta(B.nu).theta
    rng = _generator(seed)
    direct = math.inf
    for _ in range(trials):
        X = random_contraction_tuple(B.g, d, rng)
        scaled = SymTuple(tuple(m / th for m in X.mats))
        direct = min(direct, min_eigenvalue(evaluate(B, scaled)))
    assert report.min_margin == pytest.approx(direct, abs=1e-12)


def test_contraction_stack_replays_one_tuple_at_a_time():
    # the stacked kernel draws one matrix at a time and gives every tuple the
    # bits of the one-tuple call and of a per-matrix reference loop, whose
    # Gram-Schmidt runs on one matrix at a time
    g, n, trials, seed = 3, 4, 30, 41
    stack = _contraction_stack(g, n, trials, _generator(seed))
    assert stack.shape == (trials, g, n, n)
    one_at_a_time = _generator(seed)
    loop = _generator(seed)
    for k in range(trials):
        X = random_contraction_tuple(g, n, one_at_a_time)
        for j in range(g):
            q = _haar_gram_schmidt(loop.standard_normal((1, n, n)))[0]
            m = q.T @ np.diag(loop.uniform(-1.0, 1.0, size=n)) @ q
            assert np.array_equal(stack[k, j], X.mats[j])
            assert np.array_equal(stack[k, j], 0.5 * (m + m.T))


@pytest.mark.parametrize("nu, g", [(1, 1), (2, 2), (3, 4)])
def test_cube_relaxation_report_equals_per_trial_replay(nu, g):
    # one stacked spectrum call gives each trial the bits of its own
    # eigvalsh, so the report equals the per-trial loop exactly
    rng = _generator(100 + nu * g)
    coeffs = []
    for _ in range(g):
        a = rng.standard_normal((nu, nu))
        coeffs.append(0.5 * (a + a.T))
    peak = max(
        float(np.linalg.eigvalsh(sum(v * c for v, c in zip(vertex, coeffs)))[-1])
        for vertex in itertools.product((-1.0, 1.0), repeat=g)
    )
    B = MonicPencil(tuple(0.9 * c / peak for c in coeffs))
    d, trials, seed = 4, 50, 9
    report = cube_relaxation_test(B, d=d, trials=trials, seed=seed)
    th = theta(B.nu).theta
    rng = _generator(seed)
    margin = tightest = math.inf
    for _ in range(trials):
        X = random_contraction_tuple(B.g, d, rng)
        lam_max = float(_eigvalsh(sum(np.kron(b, x) for b, x in zip(B.coeffs, X.mats)))[-1])
        margin = min(margin, 1.0 - lam_max / th)
        if lam_max > 0.0:
            tightest = min(tightest, 1.0 / lam_max)
    assert report.min_margin == margin
    assert report.tightest_scale == tightest


def test_cube_relaxation_refuses_negative_tol():
    with pytest.raises(DomainError):
        cube_relaxation_test(cube_pencil(2), d=2, trials=3, seed=0, tol=-1.0)


def test_cube_relaxation_rejects_bad_pencil():
    shrunk = MonicPencil(tuple(2.0 * c for c in cube_pencil(2).coeffs))
    with pytest.raises(DomainError):
        cube_relaxation_test(shrunk, d=2, trials=1, seed=0)


def test_compression_stability():
    # If X is in the free spectrahedron, any compression V^T X V (V an
    # isometry onto a subspace) stays inside.
    rng = _generator(23)
    L = MonicPencil((B1, B2))
    for _ in range(25):
        X = random_contraction_tuple(2, 5, rng)
        lam_max = float(
            np.linalg.eigvalsh(np.eye(10) - evaluate(L, X))[-1]
        )
        scaled = SymTuple(tuple(0.95 * m / max(lam_max, 1e-9) for m in X.mats))
        assert in_free_spectrahedron(L, scaled)
        basis = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        compressed = SymTuple(tuple(basis.T @ m @ basis for m in scaled.mats))
        assert in_free_spectrahedron(L, compressed, tol=1e-9)


def test_direct_sums_stay_inside():
    rng = _generator(29)
    L = MonicPencil((B1, B2))
    th = theta(2).theta
    X = SymTuple(tuple(m / th for m in random_contraction_tuple(2, 3, rng).mats))
    Y = SymTuple(tuple(m / th for m in random_contraction_tuple(2, 4, rng).mats))
    direct = SymTuple(
        tuple(
            np.block(
                [[x, np.zeros((3, 4))], [np.zeros((4, 3)), y]]
            )
            for x, y in zip(X.mats, Y.mats)
        )
    )
    assert in_free_spectrahedron(L, X) and in_free_spectrahedron(L, Y)
    assert in_free_spectrahedron(L, direct, tol=1e-9)


@pytest.mark.parametrize(
    "haar",
    [
        lambda rng, m, d: _sign_fixed_qr(rng.standard_normal((m, d, d))),
        lambda rng, m, d: _haar_gram_schmidt(rng.standard_normal((m, d, d))),
    ],
    ids=["lapack_qr", "gram_schmidt"],
)
def test_witness_vector_identity_per_sample(haar):
    # e* (Z(U) (x) X(U)) e == trace(J_hat J(s,t;1,1)) / d == 1 for every U
    d = 3
    ks, a_opt, b_opt = kappa_star(2, 1)
    j_hat = np.diag(SignDiag(2, 1, a_opt, b_opt).diagonal())
    j_one = np.diag(SignDiag(2, 1, 1.0, 1.0).diagonal())
    e = np.eye(d).reshape(-1) / math.sqrt(d)
    rng = _generator(31)
    for u in haar(rng, 20, d):
        z = u.T @ j_hat @ u
        x = u.T @ j_one @ u
        val = e @ np.kron(z, x) @ e
        assert val == pytest.approx(1.0, abs=1e-10)


def test_witness_tuple_norms_and_degenerate_cell():
    pencil_a, X, lam = sharpness_witness(2, cells=16, samples_per_cell=500, seed=7)
    assert pencil_a.g == 16 and X.g == 16
    for m in X.mats:
        assert float(np.max(np.abs(np.linalg.eigvalsh(m)))) == pytest.approx(1.0, abs=1e-12)
    _, _, lam1 = sharpness_witness(2, cells=1, samples_per_cell=20_000, seed=7)
    assert abs(lam1) <= 0.2  # Haar average of conjugated trace-0 patterns


@pytest.mark.parametrize(
    "d, cells, samples_per_cell, seed, lam_recorded",
    [
        (2, 128, 2000, 0xC0FFEE, 1.556359481362574),
        (3, 27, 800, 5, 0.541446216082972),
    ],
)
def test_witness_keeps_its_lambda_max(d, cells, samples_per_cell, seed, lam_recorded):
    # recorded with the LAPACK-QR witness: the Gram-Schmidt draws and the
    # per-entry cell sums move lambda_max in the last bits only
    _, _, lam = sharpness_witness(d, cells, samples_per_cell, seed=seed)
    assert abs(lam - lam_recorded) <= 1e-12


def test_witness_repeats_its_bytes():
    first = sharpness_witness(3, cells=9, samples_per_cell=700, seed=21)
    second = sharpness_witness(3, cells=9, samples_per_cell=700, seed=21)
    assert first[2] == second[2]
    for a, b in zip(first[0].coeffs + first[1].mats, second[0].coeffs + second[1].mats):
        assert a.tobytes() == b.tobytes()


def test_witness_climbs_toward_theta():
    _, _, lam = sharpness_witness(2, cells=64, samples_per_cell=2_000, seed=11)
    th = theta(2).theta
    assert lam >= 0.85 * th
    assert lam <= th + 1e-6


def test_witness_pencil_feeds_relaxation_test():
    # Normalizing the witness pencil so the cube sits inside its
    # spectrahedron, the relaxation property must hold for random
    # contractions while the witness tuple itself pins the scaling near
    # 1/theta(2) = 2/pi.
    pencil_a, X, lam = sharpness_witness(2, cells=8, samples_per_cell=4_000, seed=13)
    peak = 0.0
    for bits in range(1 << pencil_a.g):
        vertex = [1.0 if bits & (1 << j) else -1.0 for j in range(pencil_a.g)]
        total = sum(v * c for v, c in zip(vertex, pencil_a.coeffs))
        peak = max(peak, float(np.linalg.eigvalsh(total)[-1]))
    normalized = MonicPencil(tuple(c / (peak * (1.0 + 1e-12)) for c in pencil_a.coeffs))
    assert verify_cube_inclusion(normalized)
    report = cube_relaxation_test(normalized, d=2, trials=40, seed=3)
    assert report.passed
    kappa2 = 1.0 / theta(2).theta
    # every feasible scaling is at least kappa_star(2) = 2/pi
    assert report.tightest_scale >= kappa2 - 1e-9


def test_witness_scale_tightens_under_refinement():
    # the scaling forced by the witness tuple approaches 1/theta(2) = 2/pi
    # from above as the partition refines
    kappa2 = 1.0 / theta(2).theta
    _, _, lam_coarse = sharpness_witness(2, cells=4, samples_per_cell=2_000, seed=19)
    _, _, lam_fine = sharpness_witness(2, cells=64, samples_per_cell=2_000, seed=19)
    assert lam_coarse < lam_fine
    assert kappa2 - 1e-9 <= 1.0 / lam_fine <= kappa2 / 0.85


def test_pencil_json_round_trip():
    L = MonicPencil((B1, B2))
    text = pencil_to_json(L)
    doc = json.loads(text)
    assert doc["nu"] == 2 and doc["g"] == 2
    back = pencil_from_json(text)
    for a, b in zip(L.coeffs, back.coeffs):
        assert np.array_equal(a, b)
    # bit-exact floats survive the trip
    third = MonicPencil((np.full((1, 1), 1.0 / 3.0),))
    assert pencil_from_json(pencil_to_json(third)).coeffs[0][0, 0] == 1.0 / 3.0


def test_symtuple_json_round_trip_and_errors():
    X = SymTuple((B1 / 3.0, B2 / 7.0))
    back = symtuple_from_json(symtuple_to_json(X))
    for a, b in zip(X.mats, back.mats):
        assert np.array_equal(a, b)
    with pytest.raises(DomainError):
        pencil_from_json("{not json")
    with pytest.raises(DomainError):
        pencil_from_json('{"nu": 2, "g": 1, "coeffs": [[1.0, 0.0, 0.0]]}')


def test_symmetry_validation():
    with pytest.raises(DomainError):
        SymTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),))
    with pytest.raises(DomainError):
        MonicPencil((np.array([[0.0, 1.0], [0.0, 0.0]]),))


@pytest.mark.filterwarnings("error")
def test_non_finite_matrices_are_refused():
    # a NaN or infinite entry is refused, never answered: a NaN tuple is not
    # inside the spin ball, nor a NaN pencil a passing cube report
    nan = math.nan
    refused = [
        lambda: SymTuple((np.diag([nan, 1.0]),)),
        lambda: cube_relaxation_test(MonicPencil(([[nan]],)), d=2, trials=2),
        lambda: defect_sqrt([[nan]]),
        lambda: sphere_abs_quadratic_integral([[nan]], n=10),
        lambda: pencil_from_json('{"nu":1,"g":1,"coeffs":[[NaN]]}'),
        lambda: MonicPencil(([[math.inf]],)),
        lambda: SymTuple((np.array([[0.5, -math.inf], [-math.inf, 0.5]]),)),
    ]
    for call in refused:
        with pytest.raises(DomainError, match="finite"):
            call()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_a_tolerance_must_be_finite_and_nonnegative(tol):
    # a NaN tol makes every "x < -tol" test false, and an infinite one
    # accepts X = 2I in both balls and the free spectrahedron
    X = SymTuple((2.0 * np.eye(2), np.zeros((2, 2))))
    calls = [
        lambda: verify_cube_inclusion(MonicPencil((3.0 * np.eye(1),)), tol=tol),
        lambda: cube_relaxation_test(cube_pencil(2), d=2, trials=2, tol=tol),
        lambda: in_free_spectrahedron(cube_pencil(2), X, tol=tol),
        lambda: ball_membership(X, "oh", tol=tol),
        lambda: ball_membership(X, "spin", tol=tol),
        lambda: spin2_extreme(X, tol=tol),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
            call()
    assert not verify_cube_inclusion(MonicPencil((3.0 * np.eye(1),)))


def test_the_matrix_layer_does_each_thing_one_way():
    # one Haar sampler (Gram-Schmidt, no LAPACK QR), one block-matrix
    # builder, and one place that keys a Philox generator
    sources = {path.name: path.read_text() for path in
               pathlib.Path(spectra_theta.__file__).parent.glob("*.py")}
    for name, text in sources.items():
        assert "np.linalg.qr(" not in text, name
        assert "np.block(" not in text, name
    assert [name for name, text in sources.items() if "np.random.Philox(" in text] == [
        "sphere_oracle.py"]
    assert sources["sphere_oracle.py"].count("np.random.Philox(") == 1
    assert "np.random.Philox(" in inspect.getsource(sphere_oracle._generator)
