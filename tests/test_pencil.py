import inspect
import itertools
import json
import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import spectra_theta
from spectra_theta import errors, pencil, sphere_oracle
from spectra_theta.dilation import ball_membership, defect_sqrt, spin2_extreme
from spectra_theta.errors import DomainError, NumericError, ResourceError
from spectra_theta.pencil import (
    CubeRelaxationReport,
    MonicPencil,
    SymTuple,
    _arc_integrals,
    _arc_owner,
    _contraction_stack,
    _eigvalsh,
    _haar_gram_schmidt,
    _score_owner,
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


@pytest.mark.parametrize("g, n, trials, seed", [(1, 1, 1, 0), (2, 3, 5, 7), (3, 4, 25, 41), (5, 2, 9, 12345)])
def test_contraction_stack_draws_as_the_per_draw_loop(g, n, trials, seed):
    # drawing in place, with the diagonal as -1 + 2 u from rng.random, keeps
    # the bits and the stream of one standard_normal((n, n)) and one
    # uniform(-1, 1, n) per matrix
    loop = _generator(seed)
    z = np.empty((trials, g, n, n))
    diag = np.empty((trials, g, n))
    for k in range(trials):
        for j in range(g):
            z[k, j] = loop.standard_normal((n, n))
            diag[k, j] = loop.uniform(-1.0, 1.0, size=n)
    q = _haar_gram_schmidt(z.reshape(trials * g, n, n))
    m = (q.swapaxes(-1, -2) * diag.reshape(trials * g, 1, n)) @ q
    rng = _generator(seed)
    stack = _contraction_stack(g, n, trials, rng)
    assert np.array_equal(stack, (0.5 * (m + m.swapaxes(-1, -2))).reshape(trials, g, n, n))
    assert rng.random() == loop.random()


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
    assert abs(lam1) <= 1e-15  # the Haar average of Z(U) is trace(J_hat) / 2 I = 0


@pytest.mark.parametrize(
    "d, cells, samples_per_cell, seed, lam_recorded",
    [
        (2, 128, 2000, 0xC0FFEE, 1.556389174899079),
        (3, 27, 800, 5, 0.541446216082972),
    ],
)
def test_witness_keeps_its_lambda_max(d, cells, samples_per_cell, seed, lam_recorded):
    # d = 2: the exact cell averages (1.556359481362574 from 256,000 samples);
    # d = 3 was recorded with the LAPACK-QR witness: the Gram-Schmidt draws
    # and the per-entry cell sums move lambda_max in the last bits only
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


def _arc_lookup(centers, u):
    """The owner of each orthogonal 2 x 2 U in ``_arc_owner``'s table, by
    U's angle and kind."""
    phi, refl = np.arctan2(u[:, 1, 0], u[:, 0, 0]), np.linalg.det(u) < 0.0
    owner = np.empty(len(u), dtype=int)
    for kind, (edges, owners) in enumerate(_arc_owner(centers)):
        assert np.all(np.diff(edges) >= 0.0) and edges[0] == -np.inf and edges[-1] == np.inf
        mine = refl == kind
        owner[mine] = owners[np.searchsorted(edges, phi[mine], side="right") - 1]
    return owner


def _rotation_or_reflection(phi, reflect):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [s, -c]]) if reflect else np.array([[c, -s], [s, c]])


def _quadrature_cells(centers, j_hat):
    """Each cell's integral of U^T diag(j_hat) U over both circles of O(2),
    in the angle, by scipy's adaptive quadrature between the angles where
    the owner can change; the owner of an angle is the nearest center by
    trace inner product, and one with no center of its own kind at a
    positive inner product goes to the lowest-index center of the other
    kind (if any)."""
    phi_c = np.arctan2(centers[:, 1, 0], centers[:, 0, 0])
    refl_c = np.linalg.det(centers) < 0.0
    # pairwise midpoints and their antipodes, and the quarter turns
    cuts = np.concatenate([(0.5 * (phi_c[:, None] + phi_c[None, :])).ravel() + shift for shift in (0.0, math.pi)]
                          + [phi_c + shift for shift in (0.5 * math.pi, -0.5 * math.pi)])
    cuts = np.unique(np.concatenate([[-math.pi, math.pi], np.angle(np.exp(1j * cuts))]))
    out = np.zeros((len(centers), 2, 2))
    for reflect in (False, True):
        same = refl_c == reflect
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            u = _rotation_or_reflection(0.5 * (lo + hi), reflect)
            scores = np.where(same, np.einsum("ij,cij->c", u, centers), -np.inf)
            k = int(np.argmax(scores)) if same.any() and (scores.max() > 0.0 or same.all()) \
                else int(np.flatnonzero(~same)[0])
            for i, j in ((0, 0), (0, 1), (1, 1)):
                out[k, i, j] += quad(lambda phi: (_rotation_or_reflection(phi, reflect).T * j_hat
                                                  @ _rotation_or_reflection(phi, reflect))[i, j],
                                     lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
    out[:, 1, 0] = out[:, 0, 1]
    return out


def _exact_cells(centers, j_hat):
    """Each cell's integral of U^T diag(j_hat) U, from ``_arc_owner``'s arcs
    and ``_arc_integrals``, as the d = 2 witness sums them."""
    sums = np.zeros((len(centers), 2, 2))
    for reflect, (edges, owners) in enumerate(_arc_owner(centers)):
        phi = np.clip(edges, -math.pi, math.pi)
        np.add.at(sums, owners, _arc_integrals(phi[:-1], phi[1:], np.asarray(j_hat), bool(reflect)))
    return sums


@pytest.mark.parametrize("cells", [1, 2, 3, 8, 128])
def test_arc_search_finds_the_score_argmax(cells):
    # a sample not in an exact tie goes where the score block's argmax puts
    # it; a tie (no center of its own kind within a quarter turn, two or
    # more of the other kind, all at inner product 0) goes to the
    # lowest-index center of the other kind
    rng = _generator(100 + cells)
    centers = _haar_gram_schmidt(rng.standard_normal((cells, 2, 2)))
    u = _haar_gram_schmidt(rng.standard_normal((20_000, 2, 2)))
    arc, score = _arc_lookup(centers, u), _score_owner(centers)(u)
    same = (np.linalg.det(u) < 0.0)[:, None] == (np.linalg.det(centers) < 0.0)[None, :]
    own_best = np.where(same, np.einsum("nij,cij->nc", u, centers), -np.inf).max(axis=1)
    assert np.all(np.abs(own_best) > 1e-9)  # no sample sits at a quarter turn
    tie = (own_best < 0.0) & ((~same).sum(axis=1) >= 2)
    assert np.array_equal(arc[~tie], score[~tie])
    assert np.array_equal(arc[tie], np.argmax(~same, axis=1)[tie])


def test_two_cells_of_one_kind_give_the_other_kind_to_cell_0():
    # both centers rotations (or both reflections): every U of the other
    # kind is at inner product 0 from both, and the whole other circle is
    # one arc, cell 0's
    seed, cells = 2, 2
    centers = _haar_gram_schmidt(_generator(seed).standard_normal((cells, 2, 2)))
    kind = bool(np.linalg.det(centers[0]) < 0.0)
    assert kind == bool(np.linalg.det(centers[1]) < 0.0)
    edges, owners = _arc_owner(centers)[int(not kind)]
    assert edges.tolist() == [-np.inf, np.inf] and owners.tolist() == [0]
    ks, a_opt, b_opt = kappa_star(1, 1)
    j_hat = np.array(SignDiag(1, 1, a_opt, b_opt).diagonal())
    # theta(2)'s J_hat = diag(1, -1) integrates to 0 over a whole circle, so
    # a generic diagonal checks that the circle lands in cell 0: pi trace(J) I
    for j in (j_hat, np.array([0.3, 0.9])):
        phi = np.clip(edges, -math.pi, math.pi)
        whole = _arc_integrals(phi[:-1], phi[1:], j, not kind)[0]
        assert np.allclose(whole, math.pi * j.sum() * np.eye(2), rtol=0.0, atol=1e-15)
        assert np.allclose(_exact_cells(centers, j), _quadrature_cells(centers, j), rtol=0.0, atol=1e-13)
    pencil_a, _, _ = sharpness_witness(2, cells, 3_000, seed=seed)
    expected = _quadrature_cells(centers, j_hat) / (4.0 * math.pi * ks)
    for k, a_k in enumerate(pencil_a.coeffs):
        assert np.allclose(a_k, expected[k], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("cells", [1, 2, 3, 8])
def test_the_exact_cells_equal_quadrature_over_score_cells(cells):
    # each cell's integral from the arc table, against quadrature over the
    # cells the score rule draws, for theta(2)'s J_hat and a generic diagonal
    centers = _haar_gram_schmidt(_generator(900 + cells).standard_normal((cells, 2, 2)))
    for j in (np.array([1.0, -1.0]), np.array([0.3, 0.9])):
        assert np.max(np.abs(_exact_cells(centers, j) - _quadrature_cells(centers, j))) <= 1e-14


def test_the_exact_2x2_witness_agrees_with_monte_carlo():
    # the sampled witness (Gram-Schmidt draws, nearest center by the score
    # block) on the exact witness's centers: every entry of every A_k, and
    # lambda_max, within 5 standard errors of the exact value
    cells, per_cell, seed = 16, 20_000, 29
    pencil_a, X, lam = sharpness_witness(2, cells, per_cell, seed=seed)
    exact = np.stack(pencil_a.coeffs)
    ks = kappa_star(1, 1)[0]
    j_hat = np.array([1.0, -1.0])
    # Haar average of U^T J_hat U is trace(J_hat) / 2 I, here 0
    assert np.max(np.abs(exact.sum(axis=0) - j_hat.sum() / (2.0 * ks) * np.eye(2))) <= 1e-14
    rng = _generator(seed)
    centers = _haar_gram_schmidt(rng.standard_normal((cells, 2, 2)))
    u = _haar_gram_schmidt(rng.standard_normal((cells * per_cell, 2, 2)))
    owner = _score_owner(centers)(u)
    # on exact scores a tie (no center of its own kind at a positive inner
    # product, all of the other kind at 0) goes to the first of the other kind
    same = (np.linalg.det(u) < 0.0)[:, None] == (np.linalg.det(centers) < 0.0)[None, :]
    tie = (np.where(same, np.einsum("nij,cij->nc", u, centers), -np.inf).max(axis=1) < 0.0) & ~same.all(axis=1)
    owner[tie] = np.argmax(~same[tie], axis=1)
    z = (u.transpose(0, 2, 1) * j_hat) @ u / ks
    # each sample's share of A_k is z [owner = k], and A_k is their mean
    n = len(u)
    moments = [np.stack([np.bincount(owner, weights=w[:, e], minlength=cells) for e in range(4)], axis=1)
               for w in (z.reshape(n, 4), z.reshape(n, 4) ** 2)]
    sampled = (moments[0] / n).reshape(cells, 2, 2)
    error = np.sqrt((moments[1] - n * (moments[0] / n) ** 2) / (n - 1) / n).reshape(cells, 2, 2)
    assert np.all(error > 0.0)
    assert np.all(np.abs(sampled - exact) <= 5.0 * error)
    # lambda_max to first order: its error is the mean of v^T (z (x) X_owner) v
    top = np.linalg.eigh(sum(map(np.kron, exact, X.mats)))[1][:, -1].reshape(2, 2)
    per_sample = np.einsum("ia,nij,nab,jb->n", top, z, np.stack(X.mats)[owner], top)
    lam_sampled = float(np.linalg.eigvalsh(sum(map(np.kron, sampled, X.mats)))[-1])
    assert abs(lam_sampled - lam) <= 5.0 * per_sample.std(ddof=1) / math.sqrt(n)


def test_the_2x2_witness_makes_no_score_block(monkeypatch):
    calls = []
    argmax = np.argmax
    monkeypatch.setattr(np, "argmax", lambda *a, **k: calls.append(a[0].shape) or argmax(*a, **k))
    sharpness_witness(2, cells=16, samples_per_cell=100, seed=3)
    assert calls == []
    sharpness_witness(3, cells=4, samples_per_cell=10, seed=3)  # d >= 3 keeps the block
    assert calls == [(40, 4)]


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


ASYMMETRIC = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("build", [SymTuple, MonicPencil])
@pytest.mark.parametrize("mats, text", [
    ((), "need one or more matrices of one size, got []"),
    ((np.ones(2),), "expected a square matrix, got shape (2,)"),
    ((np.ones((2, 3)), np.ones((2, 3))), "expected a square matrix, got shape (2, 3)"),
    ((np.zeros((0, 0)),), "matrix must be at least 1x1"),
    ((np.eye(2), np.diag([1.0, math.inf])), "matrix entries must be finite"),
    ((np.eye(2), ASYMMETRIC), "matrix is not symmetric within 1e-12"),
    ((np.eye(1), np.eye(2)), "need one or more matrices of one size, got [(1, 1), (2, 2)]"),
], ids=["empty", "1-D", "non-square", "0x0", "non-finite", "asymmetric", "two-sizes"])
def test_a_tuple_with_one_fault_is_refused_with_its_text(build, mats, text):
    with pytest.raises(DomainError) as refusal:
        build(mats)
    assert str(refusal.value) == text


def test_a_tuple_is_checked_once(monkeypatch):
    check, calls = pencil._require_symmetric, []
    monkeypatch.setattr(pencil, "_require_symmetric", lambda mats: calls.append(len(mats)) or check(mats))
    for g in (1, 4, 128):
        for build in (SymTuple, MonicPencil):
            calls.clear()
            build(tuple(np.eye(3) for _ in range(g)))
            assert calls == [g]
    calls.clear()
    sharpness_witness(2, 128, 2000)  # the pencil and the tuple
    assert calls == [128, 128]


@pytest.mark.parametrize("call", [
    lambda: SymTuple((np.array([["a", "b"], ["b", "a"]]),)),
    lambda: sphere_oracle.AbsQuadratic("x"),
    lambda: defect_sqrt([[1j, 0], [0, 1]]),
    lambda: MonicPencil((np.eye(2), 1j * np.eye(2))),
], ids=["string-tuple", "string-matrix", "complex-matrix", "complex-array"])
def test_a_matrix_that_cannot_be_read_is_refused(call):
    with pytest.raises(DomainError, match="matrix entries must be real numbers"):
        call()


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
        "errors.py"]
    assert sources["errors.py"].count("np.random.Philox(") == 1
    assert "np.random.Philox(" in inspect.getsource(errors._generator)


def test_a_scalar_point_must_be_finite():
    L = cube_pencil(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.5]):
            with pytest.raises(DomainError):
                evaluate_scalar(L, x)
    assert np.array_equal(evaluate_scalar(L, [0.5, -1.0]), np.diag([0.5, 2.0, 1.5, 0.0]))


def _cube_inclusion_by_vertex(B, tol=1e-10):
    # the defining loop: one spectrum per vertex, x_j = +1 where bit j is set
    for bits in range(1 << B.g):
        total = sum((1.0 if bits >> j & 1 else -1.0) * c for j, c in enumerate(B.coeffs))
        if np.linalg.eigvalsh(np.eye(B.nu) - total)[0] < -tol:
            return False
    return True


def test_verify_cube_inclusion_equals_a_per_vertex_loop():
    rng = _generator(2024)
    answers = set()
    for _ in range(300):
        nu, g = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        coeffs = [a + a.T for a in rng.standard_normal((g, nu, nu))]
        peak = max(float(np.linalg.eigvalsh(sum(v * c for v, c in zip(vertex, coeffs)))[-1])
                   for vertex in itertools.product((-1.0, 1.0), repeat=g))
        B = MonicPencil(tuple(c * rng.uniform(0.9, 1.1) / peak for c in coeffs))
        answer = verify_cube_inclusion(B)
        assert answer == _cube_inclusion_by_vertex(B)
        answers.add(answer)
    assert answers == {True, False}


@pytest.mark.parametrize("nu, calls", [(2, 1), (1100, 4)])
def test_verify_cube_inclusion_takes_one_spectrum_per_batch(nu, calls, monkeypatch):
    # with A_1 = A_2 = c J / nu (J all ones), L(x) has bottom eigenvalue
    # 1 - c (x_1 + x_2) where x_1 + x_2 > 0: c = 0.6 fails at the last
    # vertex (+1, +1) only, and c = 0.4 passes.  At nu = 1100 a batch of
    # about 2**20 entries holds one vertex, so each pencil takes four calls
    seen = []
    counted = pencil.min_eigenvalue
    monkeypatch.setattr(pencil, "min_eigenvalue", lambda M: seen.append(M.shape) or counted(M))
    ones = np.ones((nu, nu)) / nu
    assert verify_cube_inclusion(MonicPencil((0.4 * ones, 0.4 * ones)))
    assert not verify_cube_inclusion(MonicPencil((0.6 * ones, 0.6 * ones)))
    assert seen == [(4 // calls, nu, nu)] * (2 * calls)


def test_min_eigenvalue_of_a_stack_is_the_lowest_of_its_matrices():
    a = _generator(31).standard_normal((7, 5, 5))
    stack = a + a.swapaxes(1, 2)
    assert min_eigenvalue(stack) == min(min_eigenvalue(m) for m in stack)
    assert min_eigenvalue(stack[3]) == float(np.linalg.eigvalsh(stack[3])[0])


def test_each_spectrahedron_test_evaluates_through_the_one_kernel(monkeypatch):
    kernel = pencil._kron_sum
    calls = []
    monkeypatch.setattr(pencil, "_kron_sum", lambda A, X: calls.append(X.shape) or kernel(A, X))
    X = SymTuple((0.3 * B1, 0.2 * B2))
    for check in (lambda: evaluate_scalar(cube_pencil(2), [0.5, -1.0]),
                  lambda: verify_cube_inclusion(cube_pencil(2)),
                  lambda: in_free_spectrahedron(cube_pencil(2), X),
                  lambda: ball_membership(X, "spin"),
                  lambda: ball_membership(SymTuple((0.3 * B1,)), "spin")):
        calls.clear()
        check()
        assert len(calls) == 1


def test_every_spectrum_goes_through_one_eigensolver_call():
    sources = {path.name: path.read_text() for path in
               pathlib.Path(spectra_theta.__file__).parent.glob("*.py")}
    for call, wrapper in (("np.linalg.eigvalsh(", pencil._eigvalsh), ("np.linalg.eigh(", pencil._eigh)):
        assert [name for name, text in sources.items() if call in text] == ["pencil.py"]
        assert sources["pencil.py"].count(call) == 1
        assert call in inspect.getsource(wrapper)
    # no SVD and no matrix 2-norm: a symmetric matrix's norm is read from its spectrum
    matrix_norm = re.compile(r"np\.linalg\.norm\([^()]*,\s*(ord\s*=\s*)?2\)")
    assert not any("np.linalg.svd(" in text or matrix_norm.search(text) for text in sources.values())
    assert not any("_in_spin_ball" in text for text in sources.values())


def test_a_general_pencil_refuses_a_kronecker_side_past_its_cap(monkeypatch):
    # at the cap (side nu n = 1024) L(X) is built; one step past it, each
    # pencil test refuses before it builds a Kronecker sum or draws a trial
    assert pencil.KRON_SIDE_CAP == 1024
    one = MonicPencil((np.ones((1, 1)),))
    assert np.array_equal(evaluate(one, SymTuple((np.zeros((1024, 1024)),))), np.eye(1024))

    def fail(*args):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(pencil, "_kron_sum", fail)
    monkeypatch.setattr(pencil, "_contraction_stack", fail)
    X = SymTuple((np.zeros((1025, 1025)),))
    for check in (lambda: evaluate(one, X), lambda: in_free_spectrahedron(one, X),
                  lambda: cube_relaxation_test(one, 1025, 1),
                  lambda: cube_relaxation_test(cube_pencil(1), 513, 1)):
        with pytest.raises(ResourceError, match="side nu n <= 1024, got 102[56]"):
            check()


def test_the_witness_refuses_a_kronecker_side_past_its_cap(monkeypatch):
    # sum_j A_j (x) X_j has side d**2: d = 33 (1,089) is refused before
    # theta(d) is solved or anything is drawn, and d = 32 (1,024) goes on to theta
    def fail(*args):
        raise AssertionError("reached")

    for name in ("_kron_sum", "_theta_of", "_generator"):
        monkeypatch.setattr(pencil, name, fail)
    with pytest.raises(ResourceError, match="side nu n <= 1024, got 1089"):
        sharpness_witness(33, 1, 1)
    with pytest.raises(AssertionError, match="reached"):
        sharpness_witness(32, 1, 1)


@pytest.mark.parametrize("d, most", [(2, 65_536), (3, 29_127), (32, 256)])
def test_the_witness_refuses_more_cells_than_its_cap(monkeypatch, d, most):
    # each per-cell stack holds cells d**2 entries: one cell past 2**18 / d**2
    # is refused before theta(d) is solved, the generator keyed or anything
    # drawn, and the cap itself goes on to theta
    def fail(*args):
        raise AssertionError("reached")

    for name in ("_theta_of", "_generator", "_haar_gram_schmidt"):
        monkeypatch.setattr(pencil, name, fail)
    assert pencil.WITNESS_ENTRIES_CAP == 1 << 18 and most * d * d <= 1 << 18 < (most + 1) * d * d
    with pytest.raises(ResourceError, match=f"cells d\\*\\*2 <= 262144, got {most + 1} cells at d = {d}"):
        sharpness_witness(d, most + 1, 1)
    with pytest.raises(AssertionError, match="reached"):
        sharpness_witness(d, most, 1)


def _relaxation_pencil(nu: int, g: int, seed: int) -> MonicPencil:
    """Random symmetric coefficients scaled so that the cube's largest vertex eigenvalue is 1/2."""
    coeffs = [a + a.T for a in _generator(seed).standard_normal((g, nu, nu))]
    peak = max(float(np.linalg.eigvalsh(sum(v * c for v, c in zip(vertex, coeffs)))[-1])
               for vertex in itertools.product((-1.0, 1.0), repeat=g))
    return MonicPencil(tuple(0.5 * c / peak for c in coeffs))


def test_the_relaxation_test_does_not_depend_on_its_batches(monkeypatch):
    # The trials are drawn in stream order and checked in batches.  With a
    # theta small enough that about half the trials fail, the report, each
    # violation's trial number included, is the one stack's for any batch size.
    B, d, trials, seed = _relaxation_pencil(3, 2, 41), 4, 50, 9
    stack = _contraction_stack(B.g, d, trials, _generator(seed))
    lam_max = np.linalg.eigvalsh(pencil._kron_sum(B.coeffs, stack))[:, -1]
    fake = float(np.median(lam_max))
    monkeypatch.setattr(pencil, "_theta_of", lambda nu: type("Report", (), {"theta": fake}))
    lam_min = 1.0 - lam_max / fake
    expected = CubeRelaxationReport(
        nu=3, g=2, theta_nu=fake, trials=trials, tol=pencil.MEMBERSHIP_TOL,
        min_margin=float(lam_min.min()), tightest_scale=float((1.0 / lam_max).min()),
        violations=tuple({"trial": k, "lambda_min": float(lam_min[k])}
                         for k in np.flatnonzero(lam_min < -pencil.MEMBERSHIP_TOL).tolist()),
    )
    assert 0 < len(expected.violations) < trials
    per_trial = (B.nu * d) ** 2 + B.g * d * d
    for batch in (1, 3, 7, trials, None):
        if batch is not None:
            monkeypatch.setattr(pencil, "_BATCH_ENTRIES", batch * per_trial)
        assert cube_relaxation_test(B, d, trials, seed=seed) == expected, batch


def test_the_relaxation_test_memory_is_flat_beyond_one_batch(monkeypatch):
    # 16 trials per batch: 256 trials peak no higher than 32 (a single stack
    # of 256 held about eight times the memory of one of 32)
    B, d = cube_pencil(1), 20
    monkeypatch.setattr(pencil, "_BATCH_ENTRIES", 16 * ((B.nu * d) ** 2 + B.g * d * d))
    cube_relaxation_test(B, d, 16, seed=1)  # theta(2) and first-call allocations
    peaks = []
    for trials in (32, 256):
        tracemalloc.start()
        try:
            cube_relaxation_test(B, d, trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("coeffs", [5, [["a"]], ["ab"], {"a": 1}])
def test_the_wire_format_refuses_malformed_coefficients(coeffs):
    text = json.dumps({"nu": 1, "g": 1, "coeffs": coeffs})
    for parse in (pencil_from_json, symtuple_from_json):
        with pytest.raises(DomainError, match="malformed pencil/tuple JSON"):
            parse(text)


def test_a_wrong_sized_point_is_refused_in_a_short_message():
    with pytest.raises(DomainError, match="expected a finite point in R\\^2") as refusal:
        evaluate_scalar(cube_pencil(2), np.zeros(999))
    assert len(str(refusal.value)) <= 120


@pytest.mark.parametrize("coeffs", [[["0.5"]], [[True]], [[[[0.5]]]], [[10**400]]],
                         ids=["string", "bool", "nested", "past_the_float_range"])
def test_the_wire_format_takes_flat_lists_of_numbers_only(coeffs):
    # json.dumps writes 10**400 as an integer literal that no float holds
    text = json.dumps({"nu": 1, "g": 1, "coeffs": coeffs})
    for parse in (pencil_from_json, symtuple_from_json):
        with pytest.raises(DomainError, match="malformed pencil/tuple JSON"):
            parse(text)
    # an int is a JSON number, and stays one
    assert pencil_from_json('{"nu": 1, "g": 1, "coeffs": [[2]]}').coeffs[0][0, 0] == 2.0


def test_the_2x2_closed_form_is_u_transpose_j_hat_u():
    # the arc integrals the d = 2 witness sums, against adaptive quadrature
    # of U^T J_hat U over the same arcs, for both kinds, for the split
    # theta(2) uses and for a generic diagonal
    report = theta(2)
    _, a_opt, b_opt = kappa_star(report.minimizer_s, report.minimizer_t)
    j_hat = np.array(SignDiag(report.minimizer_s, report.minimizer_t, a_opt, b_opt).diagonal())
    rng = _generator(404)
    phi0 = rng.uniform(-math.pi, math.pi, 40)
    # short, medium and whole-circle arcs
    phi1 = phi0 + np.concatenate([rng.uniform(0.0, 1e-3, 10), rng.uniform(0.0, 2.0 * math.pi, 28), [0.0, 2 * math.pi]])
    for j in (j_hat, np.array([0.7, -0.2])):
        for reflect in (False, True):
            exact = _arc_integrals(phi0, phi1, j, reflect)
            for lo, hi, z in zip(phi0, phi1, exact):
                u = _rotation_or_reflection(0.5 * (lo + hi), reflect)
                assert math.isclose(math.atan2(u[1, 0], u[0, 0]), math.remainder(0.5 * (lo + hi), 2 * math.pi),
                                    abs_tol=1e-12)
                assert (np.linalg.det(u) < 0.0) == reflect
                for i, k in itertools.product(range(2), repeat=2):
                    want = quad(lambda phi: (_rotation_or_reflection(phi, reflect).T * j
                                             @ _rotation_or_reflection(phi, reflect))[i, k],
                                lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
                    assert abs(z[i, k] - want) <= 1e-14


@pytest.mark.parametrize("cells", [1, 2, 3, 8, 128])
def test_the_arc_search_reads_the_draw_as_its_gram_schmidt(cells):
    # Gram-Schmidt keeps the first column's angle and the sign of det, so a
    # Gaussian draw lies on the arc of its Haar sample: its angle is uniform
    # on each circle, as the exact d = 2 witness integrates it
    w = _generator(404).standard_normal((20_000, 2, 2))
    centers = _haar_gram_schmidt(_generator(500 + cells).standard_normal((cells, 2, 2)))
    assert np.array_equal(_arc_lookup(centers, w), _arc_lookup(centers, _haar_gram_schmidt(w)))


def test_the_2x2_witness_draws_only_its_centers(monkeypatch):
    draws = []

    class Recorder:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, shape):
            draws.append(shape)
            return self.rng.standard_normal(shape)

    monkeypatch.setattr(pencil, "_generator", lambda seed: Recorder(_generator(seed)))
    _, X, _ = sharpness_witness(2, cells=256, samples_per_cell=10_000, seed=3)
    assert draws == [(256, 2, 2)]
    centers = _haar_gram_schmidt(_generator(3).standard_normal((256, 2, 2)))
    j_one = np.array([1.0, -1.0])
    for x, c in zip(X.mats, centers):
        y = (c.T * j_one) @ c
        assert x.tobytes() == (0.5 * (y + y.T)).tobytes()


def test_the_2x2_witness_orthonormalizes_only_its_centers(monkeypatch):
    calls = []
    monkeypatch.setattr(pencil, "_haar_gram_schmidt",
                        lambda z: calls.append(z.shape) or _haar_gram_schmidt(z))
    # d = 2 draws no sample, whatever samples_per_cell says
    for cells, per_cell in ((3, 20_000), (16, 100)):
        calls.clear()
        sharpness_witness(2, cells, per_cell, seed=3)
        assert calls == [(cells, 2, 2)]
    calls.clear()
    sharpness_witness(3, cells=4, samples_per_cell=10, seed=3)  # d >= 3 keeps Gram-Schmidt
    assert calls == [(4, 3, 3), (40, 3, 3)]


def test_theta_is_solved_once_per_pencil_size(monkeypatch):
    calls = []
    solve = pencil.theta
    monkeypatch.setattr(pencil, "theta", lambda nu: calls.append(nu) or solve(nu))
    pencil._theta_of.cache_clear()
    rng = _generator(77)
    for k in range(20):
        nu = 1 + k % 3
        coeffs = [a + a.T for a in rng.standard_normal((2, nu, nu))]
        peak = max(float(np.linalg.eigvalsh(sum(v * c for v, c in zip(vertex, coeffs)))[-1])
                   for vertex in itertools.product((-1.0, 1.0), repeat=2))
        report = cube_relaxation_test(MonicPencil(tuple(0.5 * c / peak for c in coeffs)),
                                      d=2, trials=5, seed=k)
        assert report.theta_nu == solve(nu).theta
    assert sorted(calls) == [1, 2, 3]


def test_a_failed_theta_is_not_kept(monkeypatch):
    calls = []

    def fail(nu):
        calls.append(nu)
        raise NumericError("no theta")

    monkeypatch.setattr(pencil, "theta", fail)
    pencil._theta_of.cache_clear()
    for _ in range(2):
        with pytest.raises(NumericError, match="no theta"):
            cube_relaxation_test(cube_pencil(1), d=2, trials=1)
    assert calls == [2, 2]


def test_the_wire_format_refuses_a_declared_g_that_its_blocks_disagree_with():
    for text in ('{"nu": 1, "g": 2, "coeffs": [[1.0]]}', '{"nu": 1, "g": 1, "coeffs": [[1.0], [2.0]]}'):
        with pytest.raises(DomainError, match="declared g=. but found . coefficient blocks"):
            pencil_from_json(text)
