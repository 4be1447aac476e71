"""Monic linear pencils, free-spectrahedron membership, the matrix-cube
pencil, the cube-relaxation property test, and the sharpness witness.

A monic pencil with symmetric coefficients A_1..A_g of size nu evaluates on
a tuple X of symmetric n x n matrices as

    L_A(X) = I - sum_j A_j (x) X_j        ((x) = Kronecker product),

and X belongs to the free spectrahedron D_{L_A} when L_A(X) is positive
semidefinite.  The scalar solution set S_{L_A} is the n = 1 slice.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (DEFAULT_SEED, DomainError, NumericError, ResourceError, _generator,
                     _require_int, _require_real, _require_symmetric)
from .theta import SignDiag, kappa_star, theta

MEMBERSHIP_TOL = 1e-9
CUBE_VERTEX_CAP = 20
KRON_SIDE_CAP = 1024  # side nu n of a general pencil's L(X); see _require_kron_side
_BATCH_ENTRIES = 1 << 20  # about this many float entries per stacked spectrum call
WITNESS_ENTRIES_CAP = 1 << 18  # cells d**2, the entries of each sharpness_witness cell stack


@dataclass(frozen=True)
class SymTuple:
    """A g-tuple of symmetric n x n real matrices."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mats", tuple(_require_symmetric(self.mats)))

    @property
    def g(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]


@dataclass(frozen=True)
class MonicPencil:
    """Coefficients A_1..A_g (symmetric, nu x nu) of a monic linear pencil."""

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(_require_symmetric(self.coeffs)))

    @property
    def g(self) -> int:
        return len(self.coeffs)

    @property
    def nu(self) -> int:
        return self.coeffs[0].shape[0]


def _kron_sum(A, X: np.ndarray) -> np.ndarray:
    """sum_j A_j (x) X_kj (nu x nu A_j) for each lane k of an (m, g, n, n)
    stack X, summed in j order, so a lane has the bits of its one-lane call."""
    m, _, n = X.shape[:3]
    total = sum(np.einsum("ab,kxy->kaxby", a, X[:, j]) for j, a in enumerate(A))
    return total.reshape(m, len(A[0]) * n, len(A[0]) * n)


def _require_kron_side(nu: int, n: int) -> None:
    """ResourceError, before anything is built, for a Kronecker sum of side nu n
    past ``KRON_SIDE_CAP``: the one cap on L(X) for a general pencil.  At the cap,
    ``in_free_spectrahedron`` took 0.15 s and 25 MiB (tracemalloc) with nu = 4,
    n = 256 and g = 2, on one BLAS thread of a 2-core host; a side of 2048 took
    0.9 s and 98 MiB.  ``cube_relaxation_test`` holds one such matrix per trial of
    a batch (``_BATCH_ENTRIES``), and ``sharpness_witness`` one of side d**2."""
    if nu * n > KRON_SIDE_CAP:
        raise ResourceError(f"a pencil's Kronecker sum is capped at a side nu n <= {KRON_SIDE_CAP}, "
                            f"got {nu * n}")


def evaluate(L: MonicPencil, X: SymTuple) -> np.ndarray:
    """L(X) = I - sum_j A_j (x) X_j, a symmetric (nu n) x (nu n) matrix;
    a side nu n past ``KRON_SIDE_CAP`` is refused (``_require_kron_side``)."""
    if L.g != X.g:
        raise DomainError(f"arity mismatch: pencil has g={L.g}, tuple has g={X.g}")
    _require_kron_side(L.nu, X.n)
    return np.eye(L.nu * X.n) - _kron_sum(L.coeffs, np.stack(X.mats)[None])[0]


def evaluate_scalar(L: MonicPencil, x) -> np.ndarray:
    """L(x) for a scalar point x in R^g."""
    x = np.asarray(x, dtype=float)
    if x.shape != (L.g,) or not np.isfinite(x).all():
        raise DomainError(f"expected a finite point in R^{L.g}, got {reprlib.repr(x)}")
    return np.eye(L.nu) - _kron_sum(L.coeffs, x.reshape(1, L.g, 1, 1))[0]


def _eigvalsh(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc


def _eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_eigvalsh`` with the eigenvectors: the package's one call that takes them."""
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc


def min_eigenvalue(M: np.ndarray) -> float:
    """The bottom eigenvalue of a symmetric matrix, or the lowest over a stack."""
    return float(_eigvalsh(M)[..., 0].min())


def in_free_spectrahedron(L: MonicPencil, X: SymTuple, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether L(X) is positive semidefinite up to -tol on the bottom eigenvalue."""
    return min_eigenvalue(evaluate(L, X)) >= -_require_real("tol", tol, 0.0)


def cube_pencil(g: int) -> MonicPencil:
    """The pencil of size 2g whose spectrahedron is the cube [-1, 1]^g:
    C_j = diag(1, -1) (x) E_j."""
    g = _require_int("g", g, 1)
    coeffs = []
    for j in range(g):
        e = np.zeros((g, g))
        e[j, j] = 1.0
        coeffs.append(np.kron(np.diag([1.0, -1.0]), e))
    return MonicPencil(tuple(coeffs))


def haar_orthogonal(d: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """A Haar-distributed d x d orthogonal matrix (Gram-Schmidt of a Gaussian one)."""
    d = _require_int("d", d, 1)
    return _haar_gram_schmidt(_generator(seed).standard_normal((1, d, d)))[0]


def _haar_gram_schmidt(z: np.ndarray) -> np.ndarray:
    """The orthonormalized columns of each matrix in the stack ``z``:
    classical Gram-Schmidt, run twice ("twice is enough").  For Gaussian z
    this is the package's Haar sampler: the Q factor whose R has a positive
    diagonal, which a sign-fixed QR gives up to rounding (Mezzadri, Notices
    AMS 54(5), 2007).  Each matrix gets the same bits in a stack of any
    size.  A column whose remainder has norm zero raises NumericError.
    """
    q = np.empty_like(z)
    for k in range(z.shape[-1]):
        v = z[..., k]
        if k:
            basis = q[..., :k]
            for _ in range(2):
                v = v - np.einsum("nik,nk->ni", basis, np.einsum("nik,ni->nk", basis, v))
        norm = np.sqrt(np.einsum("ni,ni->n", v, v))
        if not np.all(norm > 0.0):
            raise NumericError("Gram-Schmidt met a column of norm zero")
        q[..., k] = v / norm[:, None]
    return q


def random_contraction_tuple(g: int, n: int, rng: np.random.Generator) -> SymTuple:
    """A g-tuple of random symmetric contractions Q^T D Q with D uniform
    diagonal in [-1, 1]; covers the extreme points in closure."""
    g, n = _require_int("g", g, 1), _require_int("n", n, 1)
    return SymTuple(tuple(_contraction_stack(g, n, 1, rng)[0]))


def _contraction_stack(g: int, n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """``trials`` tuples of ``random_contraction_tuple`` as one (trials, g, n, n)
    array.  The draws stay one matrix at a time (Gaussian, then diagonal),
    because the ziggurat consumes a variable number of words per draw and one
    big draw would reorder the stream; each is drawn in place, and the linear algebra is stacked."""
    z = np.empty((trials * g, n, n))
    u = np.empty((trials * g, n))
    for z_j, u_j in zip(z, u):
        rng.standard_normal(out=z_j)
        rng.random(out=u_j)
    diag = -1.0 + 2.0 * u  # rng.uniform(-1.0, 1.0) is low + (high - low) * next_double
    q = _haar_gram_schmidt(z)
    m = (q.swapaxes(-1, -2) * diag[:, None, :]) @ q  # Q^T D Q
    return (0.5 * (m + m.swapaxes(-1, -2))).reshape(trials, g, n, n)


def verify_cube_inclusion(B: MonicPencil, tol: float = 1e-10) -> bool:
    """Vertex-enumeration check that [-1, 1]^g is inside S_{L_B}.

    By convexity it suffices to test the 2^g cube vertices.  Refuses g > 20
    rather than falling back to sampling, which would silently weaken the
    precondition of the relaxation test.
    """
    tol = _require_real("tol", tol, 0.0)
    if B.g > CUBE_VERTEX_CAP:
        raise ResourceError(f"vertex enumeration capped at g <= {CUBE_VERTEX_CAP}, got g={B.g}")
    batch = max(1, _BATCH_ENTRIES // (B.nu**2 + B.g))  # vertices per spectrum call
    for start in range(0, 1 << B.g, batch):
        bits = np.arange(start, min(start + batch, 1 << B.g))[:, None]
        signs = ((bits >> np.arange(B.g)) & 1) * 2.0 - 1.0  # x_j = +1 where bit j is set
        if min_eigenvalue(np.eye(B.nu) - _kron_sum(B.coeffs, signs[..., None, None])) < -tol:
            return False
    return True


# theta(nu) once per size, through the module's ``theta`` at call time; a NumericError is not kept
_theta_of = functools.lru_cache(maxsize=64)(lambda nu: theta(nu))


@dataclass(frozen=True)
class CubeRelaxationReport:
    """Result of the cube-relaxation property test.

    ``min_margin`` is the smallest bottom eigenvalue of L_B(X / theta(nu))
    seen over all trials (>= -tol when the relaxation holds), and
    ``tightest_scale`` the smallest per-trial feasible scaling
    1 / lambda_max(sum B_j (x) X_j), which the theory lower-bounds by
    1 / theta(nu).
    """

    nu: int
    g: int
    theta_nu: float
    trials: int
    tol: float
    min_margin: float
    tightest_scale: float
    violations: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def cube_relaxation_test(
    B: MonicPencil,
    d: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    tol: float = MEMBERSHIP_TOL,
) -> CubeRelaxationReport:
    """Property test of the cube relaxation: when [-1, 1]^g is inside
    S_{L_B}, every tuple X of symmetric d x d contractions must satisfy
    (1/theta(nu)) X in D_{L_B}.

    The cube inclusion is pre-verified by vertex enumeration (DomainError on
    failure); each of ``trials`` random contraction tuples is then checked
    and any violation is recorded in the report, never silently dropped.
    A side nu d past ``KRON_SIDE_CAP`` is refused before anything is drawn.
    One spectrum per trial suffices: with S = sum B_j (x) X_j, the bottom
    eigenvalue of L_B(X / theta) = I - S / theta is 1 - lambda_max(S) / theta.
    The trials are drawn in stream order and checked in batches of about
    ``_BATCH_ENTRIES`` entries, so memory does not grow with ``trials``; each
    trial has the same bits in any batch.
    """
    d, trials = _require_int("d", d, 1), _require_int("trials", trials, 1)
    tol = _require_real("tol", tol, 0.0)
    _require_kron_side(B.nu, d)
    if not verify_cube_inclusion(B):
        raise DomainError("[-1,1]^g is not contained in the pencil's spectrahedron")
    th = _theta_of(B.nu).theta
    rng = _generator(seed)
    batch = max(1, _BATCH_ENTRIES // ((B.nu * d) ** 2 + B.g * d * d))  # trials per batch
    margins, scales, violations = [], [], []
    for start in range(0, trials, batch):
        X = _contraction_stack(B.g, d, min(batch, trials - start), rng)
        lam_max = _eigvalsh(_kron_sum(B.coeffs, X))[:, -1]
        lam_min = 1.0 - lam_max / th
        margins.append(lam_min.min())
        # feasible scaling of the unscaled tuple: 1 / lambda_max(S)
        scales.append(np.min(1.0 / lam_max[lam_max > 0.0], initial=math.inf))
        violations.extend({"trial": start + k, "lambda_min": float(lam_min[k])}
                          for k in np.flatnonzero(lam_min < -tol).tolist())
    return CubeRelaxationReport(
        nu=B.nu,
        g=B.g,
        theta_nu=th,
        trials=trials,
        tol=tol,
        min_margin=float(np.min(margins)),
        tightest_scale=float(np.min(scales)),
        violations=tuple(violations),
    )


def _score_owner(centers: np.ndarray):
    """The nearest center of each sample in a stack u of d x d matrices:
    nearest in Frobenius distance is largest trace inner product, so the
    argmax of the (samples x centers) score block, the first on a tie."""
    flat = centers.reshape(len(centers), -1)
    return lambda u: np.argmax(u.reshape(len(u), -1) @ flat.T, axis=1)


def _arc_owner(centers: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The Voronoi cells of 2 x 2 orthogonal centers as arcs of angle: for
    the rotations, then the reflections, the ascending arc edges (from -inf
    to inf, one more than the arcs) and each arc's owner, the center that
    ``_score_owner`` picks for a U of that kind and an angle on the arc.

    A 2 x 2 orthogonal U is a rotation or a reflection of angle
    phi = atan2(U_10, U_00).  Two of one kind have trace inner product
    2 cos(delta phi); a rotation and a reflection have exactly 0.  So a U
    belongs to the center of its own kind nearest in angle, on the arc
    between the midpoints to that center's neighbours.  A U with no center
    of its own kind within a quarter turn (or none of its kind at all) is
    exactly as near every center of the other kind, and goes to the
    lowest-index one, as the score block's argmax would on exact scores.
    """
    phi = np.arctan2(centers[:, 1, 0], centers[:, 0, 0])
    refl = np.linalg.det(centers) < 0.0
    arcs = []
    for kind in (False, True):
        mine = np.flatnonzero(refl == kind)
        other = np.flatnonzero(refl != kind)
        # beyond a quarter turn every center of the other kind is as near
        # (inner product 0) and the first takes the arc; with no other
        # kind, the arcs reach round the circle and leave no gap to fill
        reach, fallback = (0.5 * math.pi, other[0]) if other.size else (math.pi, 0)
        # a kind with no center gets one arc, the fallback's
        order = mine[np.argsort(phi[mine], kind="stable")]
        ring = np.concatenate([phi[order[-1:]] - 2.0 * math.pi, phi[order],
                               phi[order[:1]] + 2.0 * math.pi])
        mids = 0.5 * (ring[:-1] + ring[1:])
        lo = np.maximum(np.concatenate([[-np.inf], mids]), ring - reach)
        hi = np.minimum(np.concatenate([mids, [np.inf]]), ring + reach)
        # edges -inf, lo_0, hi_0, lo_1, ..., inf: [lo_k, hi_k) is ring center k's, the gaps the fallback's
        owners = np.full(2 * ring.size + 1, fallback)
        owners[1::2] = np.concatenate([order[-1:], order, order[:1]])
        arcs.append((np.concatenate([[-np.inf], np.column_stack([lo, hi]).ravel(), [np.inf]]), owners))
    return arcs


def _arc_integrals(phi0: np.ndarray, phi1: np.ndarray, j_hat: np.ndarray, reflect: bool) -> np.ndarray:
    """The integral over each arc [phi0, phi1] of U^T diag(j_hat) U in the
    angle phi of the rotation U = [[c, -s], [s, c]] (reflection [[c, s], [s, -c]]):
    diagonal j_0 c^2 + j_1 s^2 and j_0 s^2 + j_1 c^2, off-diagonal (j_1 - j_0) c s,
    negated for a reflection.  With delta = phi1 - phi0 and sigma = phi0 + phi1,
    the integrals of c^2 and s^2 are delta/2 +- cos(sigma) sin(delta)/2 and that
    of c s is sin(sigma) sin(delta)/2, free of cancellation on a short arc."""
    delta, sigma = phi1 - phi0, phi0 + phi1
    wave = 0.5 * (j_hat[0] - j_hat[1]) * np.sin(delta)
    mean, tilt = 0.5 * (j_hat[0] + j_hat[1]) * delta, wave * np.cos(sigma)
    off = (wave if reflect else -wave) * np.sin(sigma)
    return np.stack([mean + tilt, off, off, mean - tilt], axis=-1).reshape(-1, 2, 2)


def sharpness_witness(
    d: int,
    cells: int,
    samples_per_cell: int,
    seed: int = DEFAULT_SEED,
) -> tuple[MonicPencil, SymTuple, float]:
    """Discretized witness that the constant theta(d) cannot be improved.

    Averages Z(U) = U^T J_hat U over a Voronoi partition of Haar measure on
    O(d) (Frobenius metric, one cell per representative) to form pencil
    coefficients A_j, and evaluates the tuple X_j = U_j^T J(s,t;1,1) U_j at
    the cell representatives.  As the partition refines,
    lambda_max(sum_j A_j (x) X_j) climbs to theta(d); the rigged vector
    (1/sqrt(d)) sum e_i (x) e_i already certifies the trace part exactly.

    Each representative is the Gram-Schmidt orthonormalization of a
    Gaussian d x d matrix, as in ``haar_orthogonal``.  For d = 2 the cell
    averages are exact: Haar measure on O(2) is two circles, rotations and
    reflections, of mass 1/2 each and uniform in angle (Mezzadri, Notices
    AMS 54(5), 2007), each cell is a union of arcs (``_arc_owner``), and
    each arc's integral of Z(U) has a closed form (``_arc_integrals``); no
    sample is drawn.  For d >= 3 each cell average is estimated from
    cells * samples_per_cell Haar samples, each in the cell of its nearest
    center, the first on a tie; ``samples_per_cell`` is read only there.
    A Kronecker side d**2 past ``KRON_SIDE_CAP`` (d > 32) is refused before
    theta(d) is solved or anything is drawn, and so are more cells than
    ``WITNESS_ENTRIES_CAP`` / d**2 (65,536 at d = 2, 29,127 at d = 3, 256 at
    d = 32): each per-cell stack (the centers, the tuple, the sums, the
    pencil) holds cells d**2 entries.  At the cap, with one sample per cell
    on one BLAS thread, the tracemalloc peak was 44, 27 and 31 MiB (1.4,
    2.7 and 0.9 s); at four times the cap, 174, 107 and 73 MiB (5.9, 57
    and 3.4 s).  For d >= 3 the sample-by-cell score block makes the time
    grow as cells**2 samples_per_cell.

    Returns the pencil, the norm-one tuple, and the achieved lambda_max.
    """
    d, cells = _require_int("d", d, 2), _require_int("cells", cells, 1)
    samples_per_cell = _require_int("samples_per_cell", samples_per_cell, 1)
    _require_kron_side(d, d)  # sum_j A_j (x) X_j has side d**2
    if cells * d * d > WITNESS_ENTRIES_CAP:
        raise ResourceError(f"sharpness_witness is capped at cells d**2 <= {WITNESS_ENTRIES_CAP}, "
                            f"got {cells} cells at d = {d}")
    report = _theta_of(d)
    s, t = report.minimizer_s, report.minimizer_t
    ks, a_opt, b_opt = kappa_star(s, t)
    j_hat = np.array(SignDiag(s, t, a_opt, b_opt).diagonal())
    j_one = np.array(SignDiag(s, t, 1.0, 1.0).diagonal())

    rng = _generator(seed)
    centers = _haar_gram_schmidt(rng.standard_normal((cells, d, d)))
    x = (centers.swapaxes(1, 2) * j_one) @ centers

    if d == 2:
        sums = np.zeros((cells, 2, 2))
        for reflect, (edges, owners) in enumerate(_arc_owner(centers)):
            phi = np.clip(edges, -math.pi, math.pi)
            np.add.at(sums, owners, _arc_integrals(phi[:-1], phi[1:], j_hat, bool(reflect)))
        # each kind has density 1 / (4 pi) per radian
        a = sums / (4.0 * math.pi * ks)
    else:
        owner_of = _score_owner(centers)
        n_total = cells * samples_per_cell
        sums = np.zeros((d * d, cells))
        # keeps the (rows x cells) score block near 2**20 entries
        batch = max(1, _BATCH_ENTRIES // max(cells, 16 * d * d))
        for start in range(0, n_total, batch):
            m = min(batch, n_total - start)
            u = _haar_gram_schmidt(rng.standard_normal((m, d, d)))
            z = sum(j_hat[j] * u[:, j, :, None] * u[:, j, None, :] for j in range(d)).reshape(m, d * d)
            owner = owner_of(u)
            for e in range(d * d):
                sums[e] += np.bincount(owner, weights=z[:, e], minlength=cells)
        a = sums.T.reshape(cells, d, d) / (ks * n_total)

    pencil = MonicPencil(0.5 * (a + a.swapaxes(1, 2)))  # the d = 2 sums are symmetric to the bit
    witness = SymTuple(0.5 * (x + x.swapaxes(1, 2)))
    total = _kron_sum(pencil.coeffs, np.stack(witness.mats)[None])
    lam_max = float(_eigvalsh(total[0])[-1])
    return pencil, witness, lam_max


# ---------------------------------------------------------------------------
# JSON wire format, shared with the dilation module's tuples:
#   {"nu": <size>, "g": <count>, "coeffs": [<row-major 64-bit floats>, ...]}
# Round-trips exactly (floats are serialized via repr).
# ---------------------------------------------------------------------------


def _mats_to_json(nu: int, mats: tuple[np.ndarray, ...]) -> str:
    return json.dumps(
        {"nu": nu, "g": len(mats), "coeffs": [m.reshape(-1).tolist() for m in mats]}
    )


def _mats_from_json(text: str) -> list[np.ndarray]:
    try:
        doc = json.loads(text)
        nu = _require_int("nu", doc["nu"], 1)
        g = _require_int("g", doc["g"], 1)
        if not all(isinstance(f, list) and all(type(v) in (int, float) for v in f) for f in doc["coeffs"]):
            raise TypeError("a coefficient block must be a flat list of numbers (a bool is not one)")
        coeffs = [np.asarray(flat, dtype=float) for flat in doc["coeffs"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed pencil/tuple JSON: {exc}") from exc
    if g != len(coeffs):
        raise DomainError(f"declared g={g} but found {len(coeffs)} coefficient blocks")
    for arr in coeffs:
        if arr.size != nu * nu:
            raise DomainError(f"coefficient block has {arr.size} entries, expected {nu * nu}")
    return [arr.reshape(nu, nu) for arr in coeffs]


def pencil_to_json(L: MonicPencil) -> str:
    return _mats_to_json(L.nu, L.coeffs)


def pencil_from_json(text: str) -> MonicPencil:
    return MonicPencil(tuple(_mats_from_json(text)))


def symtuple_to_json(X: SymTuple) -> str:
    return _mats_to_json(X.n, X.mats)


def symtuple_from_json(text: str) -> SymTuple:
    return SymTuple(tuple(_mats_from_json(text)))
