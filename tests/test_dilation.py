import hashlib
import importlib
import math
import time

import numpy as np
import pytest

from spectra_theta import dilation
from spectra_theta.dilation import (
    SPIN_NORM_CAP,
    DilationResult,
    SpinSystem,
    _spin2_stack,
    ball_membership,
    blockdiag_dilation,
    defect_sqrt,
    oh_to_spin_choi,
    sign_flip_conjugator,
    spin2_dilation,
    spin2_extreme,
    spin_matrices,
    spin_tensor_norm,
)
from spectra_theta.errors import DomainError, NumericError, ResourceError
from spectra_theta.pencil import SymTuple
from spectra_theta.sphere_oracle import _generator

SIGMA1 = np.diag([1.0, -1.0])
SIGMA2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_spin_ball_pair(rng, n, scale=None):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    x1 = 0.5 * (a + a.T)
    x2 = 0.5 * (b + b.T)
    lam = np.block([[x1, x2], [x2, -x1]])
    norm = float(np.max(np.abs(np.linalg.eigvalsh(lam))))
    c = (rng.random() if scale is None else scale) / max(norm, 1e-12)
    return SymTuple((c * x1, c * x2))


def test_spin_matrices_g2():
    S = spin_matrices(2)
    assert np.array_equal(S.mats[0], SIGMA1.astype(int))
    assert np.array_equal(S.mats[1], SIGMA2.astype(int))


def test_spin_matrices_g3_last_factor():
    S = spin_matrices(3)
    assert np.array_equal(S.mats[2], np.kron(SIGMA2, SIGMA2).astype(int))


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_car_relations_exact(g):
    S = spin_matrices(g)
    size = 2 ** (g - 1)
    for p in S.mats:
        assert p.shape == (size, size)
        assert set(np.unique(p)).issubset({-1, 0, 1})
    for i in range(g):
        for j in range(g):
            anti = S.mats[i].astype(np.int64) @ S.mats[j].astype(np.int64)
            anti = anti + S.mats[j].astype(np.int64) @ S.mats[i].astype(np.int64)
            ref = (2 if i == j else 0) * np.eye(size, dtype=np.int64)
            assert np.array_equal(anti, ref)


def test_spin_linear_combination_squares_to_norm():
    rng = _generator(3)
    for g in (2, 4):
        S = spin_matrices(g)
        x = rng.standard_normal(g)
        total = sum(c * p.astype(float) for c, p in zip(x, S.mats))
        assert total @ total == pytest.approx(float(x @ x) * np.eye(2 ** (g - 1)), abs=1e-12)


def test_spin_caps():
    with pytest.raises(DomainError):
        spin_matrices(1)
    with pytest.raises(ResourceError):
        spin_matrices(15)
    with pytest.raises(ResourceError):
        spin_tensor_norm(9)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_spin_tensor_norm_is_g(g):
    # the dense symmetric eigensolver on the 4^(g-1) tensor square is the oracle
    mats = spin_matrices(g).float_mats()
    eigs = np.linalg.eigvalsh(sum(np.kron(p, p) for p in mats))
    assert spin_tensor_norm(g) == g
    assert max(-eigs[0], eigs[-1]) == pytest.approx(g, abs=1e-10)


def test_spin_tensor_norm_answers_every_g_quickly():
    def all_norms():
        start = time.perf_counter()
        norms = [spin_tensor_norm(g) for g in range(2, SPIN_NORM_CAP + 1)]
        return norms, time.perf_counter() - start

    runs = [all_norms() for _ in range(3)]
    assert runs[0][0] == [float(g) for g in range(2, SPIN_NORM_CAP + 1)]
    assert min(seconds for _, seconds in runs) < 0.1


@pytest.mark.parametrize("defect", ["signed permutation", "symmetric involution", "anticommute"])
def test_spin_tensor_norm_refuses_a_broken_spin_system(monkeypatch, defect):
    mats = list(spin_matrices(3).mats)
    if defect == "signed permutation":
        mats[0] = 2 * mats[0]
    elif defect == "symmetric involution":
        mats[1] = np.kron(dilation._SIGMA3, np.eye(2, dtype=np.int8))  # skew
    else:
        mats[2] = mats[0]
    monkeypatch.setattr(dilation, "spin_matrices", lambda g: SpinSystem(g, tuple(mats)))
    with pytest.raises(NumericError, match=defect):
        spin_tensor_norm(3)


def test_spin_row_norm_is_sqrt_g():
    for g in (2, 3, 4):
        mats = spin_matrices(g).float_mats()
        gram = sum(p @ p for p in mats)
        assert float(np.linalg.eigvalsh(gram)[-1]) == pytest.approx(g, abs=1e-12)


def test_ball_membership_spin_tuple():
    mats = spin_matrices(3).float_mats()
    P = SymTuple(mats)
    # exact member of the min ball, boundary of sqrt(g) OH and g spin
    assert ball_membership(P, "min_sampled", tol=1e-9, samples=256)
    assert ball_membership(SymTuple(tuple(m / math.sqrt(3.0) for m in mats)), "oh", tol=1e-12)
    assert not ball_membership(SymTuple(tuple(m / 1.5 for m in mats)), "spin", tol=1e-9)
    assert ball_membership(SymTuple(tuple(m / 3.0 for m in mats)), "spin", tol=1e-9)


def test_ball_membership_zero_and_axis():
    zero = SymTuple((np.zeros((2, 2)), np.zeros((2, 2))))
    for ball in ("oh", "spin", "min_sampled"):
        assert ball_membership(zero, ball)
    axis = SymTuple((SIGMA1, np.zeros((2, 2))))  # single norm-one coordinate
    for ball in ("oh", "spin", "min_sampled"):
        assert ball_membership(axis, ball, tol=1e-9)
    with pytest.raises(DomainError):
        ball_membership(zero, "banana")


def test_min_sampled_is_one_sided():
    grown = SymTuple((1.5 * SIGMA1, np.zeros((2, 2))))
    assert not ball_membership(grown, "min_sampled", tol=1e-9, samples=256)


def test_min_sampled_refuses_no_samples():
    X = SymTuple((0.5 * SIGMA1, 0.5 * SIGMA2))
    assert ball_membership(X, "min_sampled", samples=None)  # the 2048 default
    for samples in (0, -3):
        with pytest.raises(DomainError):
            ball_membership(X, "min_sampled", samples=samples)


def test_blockdiag_dilation():
    rng = _generator(9)
    X = random_spin_ball_pair(rng, 3)
    result = blockdiag_dilation(X)
    assert result.scale == pytest.approx(0.5)
    assert result.T.n == 6
    assert result.reconstruction_residual(X) <= 1e-12
    t1, t2 = result.T.mats
    assert np.array_equal(t1 @ t2, np.zeros((6, 6)))
    for tj, xj in zip(result.T.mats, X.mats):
        assert np.linalg.norm(tj, 2) == pytest.approx(np.linalg.norm(xj, 2), abs=1e-12)


def test_blockdiag_single_matrix():
    x = SymTuple((SIGMA1 * 0.4,))
    result = blockdiag_dilation(x)
    assert result.scale == 1.0
    assert np.array_equal(result.V, np.eye(2))
    assert np.array_equal(result.T.mats[0], x.mats[0])


def test_defect_sqrt_basics():
    assert np.array_equal(defect_sqrt(np.zeros((3, 3))), np.eye(3))
    orth = np.diag([1.0, -1.0, 1.0])
    assert np.max(np.abs(defect_sqrt(orth))) <= 1e-7
    rng = _generator(13)
    a = rng.standard_normal((4, 4))
    s = 0.5 * (a + a.T)
    s *= 0.9 / np.max(np.abs(np.linalg.eigvalsh(s)))
    d = defect_sqrt(s)
    assert np.min(np.linalg.eigvalsh(d)) >= -1e-13
    assert np.max(np.abs(d @ d + s @ s - np.eye(4))) <= 1e-10
    with pytest.raises(DomainError):
        defect_sqrt(1.2 * np.eye(2))
    with pytest.raises(DomainError):
        defect_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_defect_block_shape():
    rng = _generator(15)
    X = random_spin_ball_pair(rng, 3)
    x1, x2 = X.mats
    s = np.block([[x1, x2], [x2, -x1]])
    d = defect_sqrt(s)
    dd_gap = np.max(np.abs(d[:3, :3] - d[3:, 3:]))
    skew_gap = np.max(np.abs(d[:3, 3:] + d[:3, 3:].T))
    anti_gap = np.max(np.abs(d[:3, 3:] + d[3:, :3]))
    assert max(dd_gap, skew_gap, anti_gap) <= 1e-10


def test_spin2_dilation_commuting_input():
    for phi in (0.0, 0.3, 2.0):
        X = SymTuple((math.cos(phi) * np.eye(3), math.sin(phi) * np.eye(3)))
        result = spin2_dilation(X)
        t1, t2 = result.T.mats
        assert np.max(np.abs(t1 @ t2 - t2 @ t1)) <= 1e-9
        assert np.max(np.abs(t1 @ t1 + t2 @ t2 - np.eye(6))) <= 1e-9
        assert result.reconstruction_residual(X) == 0.0


def test_spin2_dilation_spin_pair_boundary():
    # the g = 2 spin pair, scaled onto the spin-ball boundary
    X = SymTuple((SIGMA1 / 2.0, SIGMA2 / 2.0))
    result = spin2_dilation(X)
    t1, t2 = result.T.mats
    assert np.max(np.abs(t1 @ t2 - t2 @ t1)) <= 1e-9
    assert np.max(np.abs(t1 @ t1 + t2 @ t2 - np.eye(4))) <= 1e-9
    assert result.reconstruction_residual(X) == 0.0
    assert result.scale == 1.0


def test_spin2_dilation_random_instances():
    rng = _generator(21)
    for _ in range(60):
        X = random_spin_ball_pair(rng, int(rng.integers(1, 5)))
        result = spin2_dilation(X)
        t1, t2 = result.T.mats
        n2 = t1.shape[0]
        assert np.max(np.abs(t1 @ t2 - t2 @ t1)) <= 1e-9
        assert np.max(np.abs(t1 @ t1 + t2 @ t2 - np.eye(n2))) <= 1e-9
        assert result.reconstruction_residual(X) <= 1e-9


def test_spin2_dilation_rejects_outside():
    X = SymTuple((1.2 * SIGMA1, np.zeros((2, 2))))
    with pytest.raises(DomainError):
        spin2_dilation(X)
    with pytest.raises(DomainError):
        spin2_dilation(SymTuple((SIGMA1, SIGMA2, SIGMA1)))


def test_spin2_dilation_equals_its_lane_of_a_stack():
    rng = _generator(35)
    for n in (1, 3):
        pairs = [random_spin_ball_pair(rng, n) for _ in range(40)]
        T, v, scale = _spin2_stack(np.stack([np.stack(X.mats) for X in pairs]))
        assert T.shape == (40, 2, 2 * n, 2 * n)
        for k, X in enumerate(pairs):
            result = spin2_dilation(X)
            assert np.array_equal(np.stack(result.T.mats), T[k])
            assert np.array_equal(result.V, v) and result.scale == scale


def test_stacked_dilation_names_the_lane_outside_the_spin_ball():
    rng = _generator(37)
    pairs = [random_spin_ball_pair(rng, 2) for _ in range(6)]
    pairs[3] = random_spin_ball_pair(rng, 2, scale=1.5)
    with pytest.raises(DomainError, match="lane 3: tuple is not in the spin ball"):
        _spin2_stack(np.stack([np.stack(X.mats) for X in pairs]))


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_choi_matrix_psd_and_blocks(g):
    choi = oh_to_spin_choi(g)
    m = 2 ** (g - 1)
    assert choi.shape == ((g + 1) * m, (g + 1) * m)
    eigs = np.linalg.eigvalsh(choi)
    assert eigs[0] >= -1e-10
    mats = spin_matrices(g).float_mats()
    assert np.array_equal(choi[:m, :m], 0.5 * np.eye(m))
    for j in range(g):
        block = choi[:m, (j + 1) * m : (j + 2) * m]
        assert np.array_equal(block, mats[j] / (2.0 * math.sqrt(g)))
    for j in range(g):
        for k in range(g):
            block = choi[(j + 1) * m : (j + 2) * m, (k + 1) * m : (k + 2) * m]
            assert np.max(np.abs(block - mats[j] @ mats[k] / (2.0 * g))) == 0.0
    # unitality: the diagonal blocks sum to the identity (1/(2g) is not a
    # binary fraction for odd g, so only up to rounding)
    total = sum(
        choi[i * m : (i + 1) * m, i * m : (i + 1) * m] for i in range(g + 1)
    )
    assert np.max(np.abs(total - np.eye(m))) <= 1e-12


def test_choi_g2_singular():
    eigs = np.linalg.eigvalsh(oh_to_spin_choi(2))
    assert abs(eigs[0]) <= 1e-10  # rank-deficient by the Schur complement
    with pytest.raises(ResourceError):
        oh_to_spin_choi(9)


def test_spin2_extreme_cases():
    assert spin2_extreme(SymTuple((np.eye(2), np.zeros((2, 2)))))
    assert not spin2_extreme(SymTuple((SIGMA1 / math.sqrt(2), SIGMA2 / math.sqrt(2))))
    assert not spin2_extreme(SymTuple((SIGMA1 / 2.0, SIGMA2 / 2.0)))
    assert not spin2_extreme(SymTuple((0.5 * np.eye(2), np.zeros((2, 2)))))


def test_sign_conjugation_symmetry():
    rng = _generator(27)
    mats = spin_matrices(2).float_mats()
    u = sign_flip_conjugator()
    for _ in range(10):
        X = random_spin_ball_pair(rng, 3)
        total = sum(np.kron(x, p) for x, p in zip(X.mats, mats))
        w = np.kron(np.eye(3), u)
        assert np.max(np.abs(w.T @ total @ w + total)) <= 1e-12


def test_spin_implies_sampled_min():
    rng = _generator(33)
    for _ in range(20):
        X = random_spin_ball_pair(rng, 3)
        assert ball_membership(X, "spin", tol=1e-10)
        assert ball_membership(X, "min_sampled", tol=1e-9, samples=512)


def test_one_tuple_dilation_checks_once(monkeypatch):
    # DilationResult is the only check on a one-tuple dilation: the stacked
    # kernels leave the dilation checks to their caller.
    module = importlib.import_module("spectra_theta.dilation")
    check, calls = module._check_dilations, []

    def counted(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(module, "_check_dilations", counted)
    X = random_spin_ball_pair(_generator(43), 3)
    for dilate in (blockdiag_dilation, spin2_dilation):
        calls.clear()
        dilate(X)
        assert len(calls) == 1, dilate.__name__


def test_dilation_result_validation():
    X = SymTuple((0.5 * SIGMA1,))
    with pytest.raises(DomainError):
        DilationResult(T=X, V=np.array([[1.0], [1.0]]), scale=1.0)
    noncommuting = SymTuple((SIGMA1, SIGMA2))
    with pytest.raises(DomainError):
        DilationResult(T=noncommuting, V=np.eye(2), scale=1.0)


def test_spin2_stack_takes_one_spectrum_per_call(monkeypatch):
    # the spin-ball check and the defect share one eigh of
    # S = [[X1, X2], [X2, -X1]] per lane
    rng = _generator(45)
    xs = np.stack([np.stack(random_spin_ball_pair(rng, 3).mats) for _ in range(5)])
    calls = []

    def counted(name, solver):
        return lambda *args, **kwargs: calls.append(name) or solver(*args, **kwargs)

    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    _spin2_stack(xs)
    assert calls == ["eigh"]


def test_spin2_dilation_keeps_its_recorded_bytes():
    # SHA-256 of the T bytes, recorded before the spin-ball check and the
    # defect shared one spectrum
    X = SymTuple((np.array([[0.3, 0.1], [0.1, -0.2]]), np.array([[0.05, 0.2], [0.2, 0.1]])))
    T = spin2_dilation(X).T.mats
    assert hashlib.sha256(b"".join(t.tobytes() for t in T)).hexdigest() == (
        "91d9b31595813512d80c6478d9defa0acd64245928e978306c031acf17eb4d43")
