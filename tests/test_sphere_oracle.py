import functools
import math
import tracemalloc

import numpy as np
import pytest

from spectra_theta import sphere_oracle
from spectra_theta.cli import main
from spectra_theta.errors import DomainError
from spectra_theta.sphere_oracle import (
    _BATCH,
    AbsQuadratic,
    SignMoment,
    SignOuter,
    _generator,
    _stream_batches,
    e_j_matrix,
    joint_estimates,
    sign_quadratic_moment,
    sphere_abs_quadratic_integral,
)
from spectra_theta.theta import SignDiag, alpha_beta, kappa, kappa_star

N = 200_000  # module-level sample count; the acceptance suite runs 10^6


def _sphere_batches(d, n, seed):
    """The n sphere samples of dimension d in _BATCH-row batches: the seed's
    normals drawn one batch at a time and normalized, the reference that the
    estimators' arithmetic on squares and |xi|^2 is compared against."""
    rng = _generator(seed)
    for start in range(0, n, _BATCH):
        x = rng.standard_normal((min(_BATCH, n - start), d))
        yield x / np.linalg.norm(x, axis=1, keepdims=True)


def test_identity_is_exact():
    est = sphere_abs_quadratic_integral(np.eye(5), n=2_000, seed=1)
    assert est.value == 1.0
    assert est.std_err == 0.0


def test_kappa_d2_within_three_sigma():
    est = sphere_abs_quadratic_integral(np.diag([1.0, -1.0]), n=N, seed=2)
    assert est.std_err > 0.0
    assert est.agrees_with(2.0 / math.pi, 3.0)


def test_kappa_d4_within_three_sigma():
    est = sphere_abs_quadratic_integral(np.diag([1.0, 1.0, -1.0, -1.0]), n=N, seed=3)
    assert est.agrees_with(0.5, 3.0)


def test_general_symmetric_matrix_matches_kappa():
    # off-diagonal B is handled by the quadratic form, not just diagonals;
    # conjugating J by a rotation leaves the integral unchanged
    theta_angle = 0.7
    c, s = math.cos(theta_angle), math.sin(theta_angle)
    q = np.array([[c, -s], [s, c]])
    B = q.T @ np.diag([1.0, -1.0]) @ q
    est = sphere_abs_quadratic_integral(0.5 * (B + B.T), n=N, seed=4)
    assert est.agrees_with(2.0 / math.pi, 3.0)


def test_a_general_matrix_is_read_through_its_spectrum():
    # for B = Q diag(lambda) Q^T, Q^T xi is again uniform on the sphere: the
    # estimate for B is, to the bit, the one for diag(eigvalsh(B))
    rng = _generator(41)
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    B = (q * np.array([1.5, -0.7, 0.2, -2.0, 0.9])) @ q.T
    B = 0.5 * (B + B.T)
    spectral = np.diag(np.linalg.eigvalsh(B))
    for n in (1, 1000, _BATCH + 7):
        assert sphere_abs_quadratic_integral(B, n, seed=8) == sphere_abs_quadratic_integral(spectral, n, seed=8)


def test_nonsymmetric_rejected():
    with pytest.raises(DomainError):
        sphere_abs_quadratic_integral(np.array([[0.0, 1.0], [0.0, 0.0]]), n=10, seed=0)


def test_sign_moment_symmetric_point():
    # alpha(1,1;1,1) = 1/pi
    est = sign_quadratic_moment(SignDiag(1, 1, 1.0, 1.0), 1, n=N, seed=5)
    assert est.agrees_with(1.0 / math.pi, 3.0)


def test_sign_moment_matches_alpha_beta():
    _, a, b = kappa_star(2, 1)
    J = SignDiag(2, 1, a, b)
    alpha, beta = alpha_beta(J)
    est_pos = sign_quadratic_moment(J, 1, n=N, seed=6)
    est_neg = sign_quadratic_moment(J, 3, n=N, seed=7)
    assert est_pos.agrees_with(alpha, 3.0)
    assert est_neg.agrees_with(-beta, 3.0)


def test_sign_moment_coordinate_independence():
    J = SignDiag(3, 2, 1.2, 0.7)
    est1 = sign_quadratic_moment(J, 1, n=N, seed=8)
    est3 = sign_quadratic_moment(J, 3, n=N, seed=9)
    gap = abs(est1.value - est3.value)
    assert gap <= 4.0 * math.hypot(est1.std_err, est3.std_err)


def test_sign_moment_coord_validation():
    with pytest.raises(DomainError):
        sign_quadratic_moment(SignDiag(1, 1, 1.0, 1.0), 3, n=10, seed=0)


def test_sign_moment_refuses_no_samples():
    with pytest.raises(DomainError):
        sign_quadratic_moment(SignDiag(1, 1, 1.0, 1.0), 1, n=0, seed=0)


def test_e_j_symmetric_point():
    est = e_j_matrix(SignDiag(1, 1, 1.0, 1.0), n=N, seed=10)
    target = np.diag([1.0 / math.pi, -1.0 / math.pi])
    assert np.all(np.abs(est.value - target) <= 4.0 * np.maximum(est.std_err, 1e-15))


def test_e_j_at_optimum_is_kappa_scaled_sign_pattern():
    ks, a, b = kappa_star(2, 2)
    est = e_j_matrix(SignDiag(2, 2, a, b), n=N, seed=11)
    target = (ks / 4.0) * np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.all(np.abs(est.value - target) <= 4.0 * np.maximum(est.std_err, 1e-15))


def test_e_j_zero_padding_scales_top_block():
    J = SignDiag(2, 1, 1.2, 0.6)
    base = e_j_matrix(J, n=N, seed=12)
    padded = e_j_matrix(J, n=N, seed=13, pad_zeros=2)
    d, u = 3, 2
    top = padded.value[:d, :d]
    scale_err = np.abs(top - (d / (d + u)) * base.value)
    band = 4.0 * np.hypot((d / (d + u)) * base.std_err, padded.std_err[:d, :d])
    assert np.all(scale_err <= np.maximum(band, 1e-15))


def test_e_j_estimate_is_exactly_symmetric():
    # E_J is symmetric; its estimate must be too, to the bit, although the
    # (i, j) and (j, i) sums of xi_i xi_j sgn / |xi|^2 round differently
    for J, pad in [(SignDiag(2, 2, 1.0, 0.5), 0), (SignDiag(2, 1, 1.2, 0.6), 2)]:
        est = e_j_matrix(J, n=_BATCH + 5, seed=15, pad_zeros=pad)
        assert np.array_equal(est.value, est.value.T)
        assert np.array_equal(est.std_err, est.std_err.T)


def test_determinism_bit_identical():
    a = sphere_abs_quadratic_integral(np.diag([1.0, -1.0]), n=60_000, seed=42)
    b = sphere_abs_quadratic_integral(np.diag([1.0, -1.0]), n=60_000, seed=42)
    assert a == b
    c = sign_quadratic_moment(SignDiag(2, 1, 1.0, 1.0), 1, n=30_000, seed=9)
    d = sign_quadratic_moment(SignDiag(2, 1, 1.0, 1.0), 1, n=30_000, seed=9)
    assert c == d
    e1 = e_j_matrix(SignDiag(1, 1, 1.0, 1.0), n=20_000, seed=3)
    e2 = e_j_matrix(SignDiag(1, 1, 1.0, 1.0), n=20_000, seed=3)
    assert np.array_equal(e1.value, e2.value) and np.array_equal(e1.std_err, e2.std_err)


def test_blas_contractions_match_the_einsum_reference():
    # the estimators contract through BLAS (squares @ spectrum, X^T X); the
    # three-operand einsums over the same samples are the reference, to the
    # rounding of one _BATCH-sample batch sum.  A general B is read through its
    # spectrum, so its reference is the quadratic form of diag(eigvalsh(B))
    n, seed = 155_653, 12
    rtol = _BATCH * np.finfo(float).eps
    rng = _generator(seed)
    B = rng.standard_normal((4, 4))
    B = 0.5 * (B + B.T)
    quad = np.concatenate([np.abs(np.einsum("ni,i,ni->n", x, np.linalg.eigvalsh(B), x))
                           for x in _sphere_batches(4, n, seed)])
    est = sphere_abs_quadratic_integral(B, n=n, seed=seed)
    assert est.value == pytest.approx(quad.mean(), rel=rtol)
    J = SignDiag(2, 2, 1.0, 0.5)
    diag = np.array(J.diagonal())
    s1 = sum(np.einsum("n,ni,nj->ij", np.sign((x * x) @ diag), x, x)
             for x in _sphere_batches(4, n, seed))
    ej = e_j_matrix(J, n=n, seed=seed)
    assert np.max(np.abs(ej.value - s1 / n)) <= rtol * np.max(np.abs(s1 / n))


def test_half_versus_double_sample_consistency():
    J = np.diag([1.0, 1.0, -1.0])
    small = sphere_abs_quadratic_integral(J, n=N // 2, seed=21)
    large = sphere_abs_quadratic_integral(J, n=2 * N, seed=22)
    gap = abs(small.value - large.value)
    assert gap <= 4.0 * math.hypot(small.std_err, large.std_err)


def test_trace_pairing_positive():
    # trace(E_J J) estimates the (positive) integral of |xi* J xi|
    for J in [SignDiag(1, 1, 1.0, 1.0), SignDiag(3, 2, 0.4, 2.0)]:
        est = e_j_matrix(J, n=50_000, seed=33)
        assert float(np.trace(est.value @ np.diag(J.diagonal()))) > 0.0


def test_kappa_cross_check_generic():
    J = SignDiag(3, 2, 1.1, 0.85)
    est = sphere_abs_quadratic_integral(np.diag(J.diagonal()), n=N, seed=14)
    assert est.agrees_with(kappa(J), 3.0)


# --- one stream shared by every estimate --------------------------------------

# one sample, then n ending one row short of a batch, mid-batch and on a batch's end
SHARING_NS = [1, 131_071, 155_653, 393_216]


def _requests():
    """Pairs (request, its one-estimate call at (n, seed)) of all three
    kinds in dimensions 1, 2, 3, 4, 5 and 8, with and without padding, and
    with general and diagonal B."""
    rng = _generator(40)
    pairs = []
    for d in (1, 2, 3, 4, 5, 8):
        B = rng.standard_normal((d, d))
        B = 0.5 * (B + B.T)
        pairs.append((AbsQuadratic(B), functools.partial(sphere_abs_quadratic_integral, B)))
    for B in [np.diag([1.0, -0.5, 2.0]), np.diag(SignDiag(5, 3, 1.2, 0.7).diagonal())]:
        pairs.append((AbsQuadratic(B), functools.partial(sphere_abs_quadratic_integral, B)))
    for J, coord in [(SignDiag(1, 1, 1.0, 1.0), 2), (SignDiag(2, 1, 1.2, 0.6), 1),
                     (SignDiag(3, 2, 1.1, 0.85), 4), (SignDiag(5, 3, 1.2, 0.7), 8)]:
        pairs.append((SignMoment(J, coord), functools.partial(sign_quadratic_moment, J, coord)))
    for J, pad in [(SignDiag(2, 2, 1.0, 0.5), 0), (SignDiag(1, 1, 1.0, 1.0), 1),
                   (SignDiag(2, 1, 1.2, 0.6), 2), (SignDiag(2, 1, 1.2, 0.6), 5)]:
        pairs.append((SignOuter(J, pad), lambda n, seed, J=J, pad=pad: e_j_matrix(J, n, seed, pad)))
    return pairs


def _reference_estimate(request, n, seed):
    """The estimate as a standalone loop in the estimators' arithmetic: a
    fresh draw per batch, its squares sq and |xi|^2 = sq @ ones, whole-batch
    sums and Gram matrices divided by |xi|^2, a B read through its diagonal or
    spectrum (``request.diag``), and E_J's sum made symmetric at the end."""
    rng = _generator(seed)
    d = request.d
    totals = [np.zeros((d, d)), np.zeros((d, d))] if isinstance(request, SignOuter) else [0.0, 0.0]
    for start in range(0, n, _BATCH):
        x = rng.standard_normal((min(_BATCH, n - start), d))
        sq = x * x
        r2 = sq @ np.ones(d)
        if isinstance(request, SignOuter):
            w = sq / r2[:, None]
            totals[0] += (x * (np.sign(sq @ request.diag) / r2)[:, None]).T @ x
            totals[1] += w.T @ w
            continue
        if isinstance(request, AbsQuadratic):
            v = np.abs(sq @ request.diag) / r2
        else:
            v = np.sign(sq @ request.diag) * (sq[:, request.k] / r2)
        totals[0] += float(v.sum())
        totals[1] += float((v * v).sum())
    if isinstance(request, SignOuter):
        totals[0] = 0.5 * (totals[0] + totals[0].T)
    mean = totals[0] / n
    if n == 1:
        return mean, np.zeros_like(mean)
    var = np.maximum(totals[1] - n * mean * mean, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def _same_bits(a, b):
    return np.array_equal(a.value, b.value) and np.array_equal(a.std_err, b.std_err)


def test_normal_stream_is_the_same_in_uneven_pieces():
    # the sharing rests on this: drawing the seed's normals in pieces of
    # any size, into fresh arrays or into out=, gives one long draw
    whole = _generator(17).standard_normal(3 * 8192 + 11)
    rng = _generator(17)
    pieces = [rng.standard_normal(k) for k in (1, 2, 3, 5, 8192 - 7)]
    rest = np.empty(len(whole) - sum(len(p) for p in pieces))
    rng.standard_normal(out=rest[:4])
    rng.standard_normal(out=rest[4:])
    assert np.array_equal(np.concatenate(pieces + [rest]), whole)
    assert np.array_equal(_generator(17).standard_normal((8192, 3)).ravel(), whole[: 3 * 8192])


@pytest.mark.parametrize("n", SHARING_NS)
def test_joint_estimates_equal_one_estimate_calls(n):
    requests, one_estimate = zip(*_requests())
    joint = joint_estimates(requests, n, seed=3)
    same = [_same_bits(est, call(n, 3)) for call, est in zip(one_estimate, joint)]
    assert same == [True] * len(joint)


@pytest.mark.parametrize("n", [1, 155_653])
def test_estimates_equal_the_standalone_loop(n):
    requests = [request for request, _ in _requests()]
    for r, est in zip(requests, joint_estimates(requests, n, seed=5)):
        value, std_err = _reference_estimate(r, n, 5)
        assert np.array_equal(est.value, value) and np.array_equal(est.std_err, std_err)
    for dims in [(5,), (2, 5)]:  # one dimension, and two sharing the window
        raw = {d: [] for d in dims}
        for d, x, sq, r2 in _stream_batches(dims, n, 6):
            assert np.array_equal(sq, x * x) and np.array_equal(r2, sq @ np.ones(d))
            raw[d].append(x.copy())
        for d in dims:
            assert np.array_equal(np.concatenate(raw[d]), _generator(6).standard_normal((n, d)))


def test_joint_estimates_inputs():
    assert joint_estimates([], n=10, seed=0) == []
    request = AbsQuadratic(np.diag([1.0, -1.0]))
    twice = joint_estimates([request, request], n=1000, seed=2)
    assert twice == [sphere_abs_quadratic_integral(np.diag([1.0, -1.0]), n=1000, seed=2)] * 2
    with pytest.raises(DomainError):
        joint_estimates([AbsQuadratic(np.eye(2))], n=0, seed=0)
    with pytest.raises(DomainError):
        SignOuter(SignDiag(1, 1, 1.0, 1.0), pad_zeros=-1)


def test_verify_oracle_draws_each_normal_once(monkeypatch, capsys):
    drawn = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size=None, *, out=None):
            drawn.append(out.size if out is not None else math.prod(np.atleast_1d(size)))
            return self.rng.standard_normal(size, out=out)

    monkeypatch.setattr(sphere_oracle, "_generator", lambda seed: Counting(_generator(seed)))
    n = 20_000
    assert main(["verify", "oracle", "--samples", str(n)]) == 0
    capsys.readouterr()
    assert sum(drawn) == 8 * n  # the widest estimate is kappa*(4, 4) in d = 8


def test_verify_oracle_keeps_its_bytes_at_the_benchmark_sample_count(capsys):
    # the benchmark's op: a new batch size moves the estimates' last bits,
    # and this pins what the command prints
    assert main(["verify", "oracle", "--samples", "500000"]) == 0
    assert capsys.readouterr().out == (
        "verify oracle: OK (0 violations)\n"
        "verify oracle: worst deviation 2.86 standard errors of bound 3 (kappa_mc, s=1, t=1)\n")


@pytest.mark.parametrize("n", [1, 3])
def test_an_estimate_keeps_python_floats_and_one_sample_has_no_spread(n):
    J = SignDiag(2, 1, 1.0, 1.0)
    scalar, matrix = joint_estimates([SignMoment(J, 1), SignOuter(J)], n, seed=4)
    assert type(scalar.value) is float and type(scalar.std_err) is float
    assert matrix.std_err.shape == (3, 3)
    assert (scalar.std_err == 0.0) == (n == 1)
    assert (not matrix.std_err.any()) == (n == 1)


@pytest.mark.parametrize("requests, shown", [
    (["x"], "got 'x'"),
    (AbsQuadratic(np.eye(2)), "requests must be iterable, got <"),
    (None, "requests must be iterable, got None"),
    ([AbsQuadratic(np.eye(2)), "y" * 100], "got 'yyyy"),
], ids=["a_string", "a_bare_request", "none", "a_long_string"])
def test_joint_estimates_refuses_what_is_not_a_request(requests, shown, monkeypatch):
    def no_draw(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(sphere_oracle, "_generator", no_draw)
    with pytest.raises(DomainError) as refusal:
        joint_estimates(requests, 10)
    assert shown in str(refusal.value) and len(str(refusal.value)) < 120  # reprlib's short value


def _traced_peak(requests, n):
    """The tracemalloc peak of one ``joint_estimates`` call, in bytes."""
    tracemalloc.start()
    try:
        joint_estimates(requests, n, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scalar_requests_share_one_pair_of_batch_vectors():
    # each request owns only what it alone writes: eight diagonal requests
    # take no more memory than one, and no request keeps a buffer of a
    # batch's size after the call
    B = np.diag([1.0, 1.0, -1.0, -1.0])
    one, eight = [AbsQuadratic(B)], [AbsQuadratic(B) for _ in range(8)]
    _traced_peak(one, _BATCH)  # the first pass in a process also allocates state that outlives it
    assert _traced_peak(eight, _BATCH) <= _traced_peak(one, _BATCH) + (1 << 16)  # a batch vector: 128 KiB
    J = SignDiag(2, 2, 1.0, 0.5)
    general = _generator(2).standard_normal((4, 4))
    requests = [SignOuter(J), SignOuter(J), SignMoment(J, 1), AbsQuadratic(general + general.T)]
    joint_estimates(requests, _BATCH + 7, seed=1)
    with pytest.raises(DomainError):
        joint_estimates(requests, _BATCH, seed=-1)
    held = [v.size for r in requests for v in vars(r).values() if isinstance(v, np.ndarray)]
    assert max(held) < 8192


def test_the_peak_is_flat_in_n_and_within_the_batch_buffers():
    # d = 8, so the two windows (normals and squares) hold _BATCH rows of 8
    # doubles each; the shared rows are |xi|^2 and the two per-sample vectors,
    # and E_J's own is its (rows, d) matrix.  Its broadcast divisions take one
    # numpy ufunc buffer of np.getbufsize() doubles; 32 KiB covers the d x d
    # sums, the batch schedule and the estimates
    J = SignDiag(4, 4, 1.0, 1.0)
    requests = [AbsQuadratic(np.diag(J.diagonal())), SignOuter(J)]
    bound = 8 * (2 * _BATCH * 8 + 3 * _BATCH + _BATCH * 8) + 8 * np.getbufsize() + (1 << 15)
    _traced_peak(requests, _BATCH)  # the first pass in a process also allocates state that outlives it
    small, large = _traced_peak(requests, 4 * _BATCH), _traced_peak(requests, 40 * _BATCH)
    assert abs(large - small) <= 0.1 * small
    assert max(small, large) <= bound
