"""Monic linear pencils, free-spectrahedron membership, the matrix-cube
pencil, the cube-relaxation property test, and the sharpness witness.

A monic pencil with symmetric coefficients A_1..A_g of size nu evaluates on
a tuple X of symmetric n x n matrices as

    L_A(X) = I - sum_j A_j (x) X_j        ((x) = Kronecker product),

and X belongs to the free spectrahedron D_{L_A} when L_A(X) is positive
semidefinite.  The scalar solution set S_{L_A} is the n = 1 slice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, ResourceError, _require_int, _require_real
from .sphere_oracle import DEFAULT_SEED, _generator, _require_symmetric
from .theta import SignDiag, kappa_star, theta

MEMBERSHIP_TOL = 1e-9
CUBE_VERTEX_CAP = 20


@dataclass(frozen=True)
class SymTuple:
    """A g-tuple of symmetric n x n real matrices."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mats", _symmetric_tuple(self.mats))

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
        object.__setattr__(self, "coeffs", _symmetric_tuple(self.coeffs))

    @property
    def g(self) -> int:
        return len(self.coeffs)

    @property
    def nu(self) -> int:
        return self.coeffs[0].shape[0]


def _symmetric_tuple(mats) -> tuple[np.ndarray, ...]:
    """``mats``, each through ``_require_symmetric``: one or more, of one size."""
    mats = tuple(map(_require_symmetric, mats))
    if not mats or any(m.shape != mats[0].shape for m in mats):
        raise DomainError(f"need one or more matrices of one size, got {[m.shape for m in mats]}")
    return mats


def _kron_sum(A, X: np.ndarray) -> np.ndarray:
    """sum_j A_j (x) X_kj (nu x nu A_j) for each lane k of an (m, g, n, n)
    stack X, summed in j order, so a lane has the bits of its one-lane call."""
    m, _, n = X.shape[:3]
    total = sum(np.einsum("ab,kxy->kaxby", a, X[:, j]) for j, a in enumerate(A))
    return total.reshape(m, len(A[0]) * n, len(A[0]) * n)


def evaluate(L: MonicPencil, X: SymTuple) -> np.ndarray:
    """L(X) = I - sum_j A_j (x) X_j, a symmetric (nu n) x (nu n) matrix."""
    if L.g != X.g:
        raise DomainError(f"arity mismatch: pencil has g={L.g}, tuple has g={X.g}")
    return np.eye(L.nu * X.n) - _kron_sum(L.coeffs, np.stack(X.mats)[None])[0]


def evaluate_scalar(L: MonicPencil, x) -> np.ndarray:
    """L(x) for a scalar point x in R^g."""
    x = np.asarray(x, dtype=float)
    if x.shape != (L.g,) or not np.isfinite(x).all():
        raise DomainError(f"expected a finite point in R^{L.g}, got {x}")
    out = np.eye(L.nu)
    for a, xj in zip(L.coeffs, x):
        out -= a * xj
    return out


def _eigvalsh(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc


def min_eigenvalue(M: np.ndarray) -> float:
    return float(_eigvalsh(M)[0])


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
    big draw would reorder the stream; the linear algebra is stacked."""
    z = np.empty((trials, g, n, n))
    diag = np.empty((trials, g, n))
    for k in range(trials):
        for j in range(g):
            z[k, j] = rng.standard_normal((n, n))
            diag[k, j] = rng.uniform(-1.0, 1.0, size=n)
    q = _haar_gram_schmidt(z.reshape(trials * g, n, n))
    m = (q.swapaxes(-1, -2) * diag.reshape(trials * g, 1, n)) @ q  # Q^T D Q
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
    vertex = np.empty(B.g)
    for bits in range(1 << B.g):
        for j in range(B.g):
            vertex[j] = 1.0 if bits & (1 << j) else -1.0
        if min_eigenvalue(evaluate_scalar(B, vertex)) < -tol:
            return False
    return True


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
    One spectrum per trial suffices: with S = sum B_j (x) X_j, the bottom
    eigenvalue of L_B(X / theta) = I - S / theta is 1 - lambda_max(S) / theta.
    """
    d, trials = _require_int("d", d, 1), _require_int("trials", trials, 1)
    tol = _require_real("tol", tol, 0.0)
    if not verify_cube_inclusion(B):
        raise DomainError("[-1,1]^g is not contained in the pencil's spectrahedron")
    th = theta(B.nu).theta
    X = _contraction_stack(B.g, d, trials, _generator(seed))
    lam_maxes = _eigvalsh(_kron_sum(B.coeffs, X))[:, -1].tolist()
    min_margin = math.inf
    tightest = math.inf
    violations = []
    for k, lam_max in enumerate(lam_maxes):
        lam_min = 1.0 - lam_max / th
        min_margin = min(min_margin, lam_min)
        # feasible scaling of the unscaled tuple: 1 / lambda_max(S)
        if lam_max > 0.0:
            tightest = min(tightest, 1.0 / lam_max)
        if lam_min < -tol:
            violations.append({"trial": k, "lambda_min": lam_min})
    return CubeRelaxationReport(
        nu=B.nu,
        g=B.g,
        theta_nu=th,
        trials=trials,
        tol=tol,
        min_margin=min_margin,
        tightest_scale=tightest,
        violations=tuple(violations),
    )


def _score_owner(centers: np.ndarray):
    """The nearest center of each sample in a stack u of d x d matrices:
    nearest in Frobenius distance is largest trace inner product, so the
    argmax of the (samples x centers) score block, the first on a tie."""
    flat = centers.reshape(len(centers), -1)
    return lambda u: np.argmax(u.reshape(len(u), -1) @ flat.T, axis=1)


def _arc_owner(centers: np.ndarray):
    """``_score_owner`` for 2 x 2 orthogonal centers, by one search of an arc
    table instead of a score block.

    A 2 x 2 orthogonal U is a rotation or a reflection of angle
    phi = atan2(U_10, U_00).  Two of one kind have trace inner product
    2 cos(delta phi); a rotation and a reflection have exactly 0.  So a
    sample belongs to the center of its own kind nearest in angle, on the
    arc between the midpoints to that center's neighbours.  A sample with no
    center of its own kind within a quarter turn (or none of its kind at
    all) is exactly as near every center of the other kind, and goes to the
    lowest-index one, as the score block's argmax would on exact scores; the
    search keys each kind's angles apart, as phi + 4 pi [reflection].
    """
    def angle_kind(u):
        phi = np.arctan2(u[:, 1, 0], u[:, 0, 0])
        return phi, u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0] < 0.0

    phi, refl = angle_kind(centers)
    breaks, owners = [], []
    for kind in (False, True):
        mine = np.flatnonzero(refl == kind)
        other = np.flatnonzero(refl != kind)
        # beyond a quarter turn every center of the other kind is as near
        # (inner product 0) and the first takes the sample; with no other
        # kind, the arcs reach round the circle and leave no gap to fill
        reach, fallback = (0.5 * math.pi, other[0]) if other.size else (math.pi, 0)
        # a kind with no center gets no breaks and one slot, the fallback
        order = mine[np.argsort(phi[mine], kind="stable")]
        ring = np.concatenate([phi[order[-1:]] - 2.0 * math.pi, phi[order],
                               phi[order[:1]] + 2.0 * math.pi])
        mids = 0.5 * (ring[:-1] + ring[1:])
        lo = np.maximum(np.concatenate([[-np.inf], mids]), ring - reach)
        hi = np.minimum(np.concatenate([mids, [np.inf]]), ring + reach)
        # keys of this kind lie in [-pi, pi]: clipping to [-2 pi, 2 pi]
        # keeps their slots and keeps the two kinds' tables apart
        breaks.append(np.clip(np.column_stack([lo, hi]).ravel(), -2.0 * math.pi, 2.0 * math.pi)
                      + 4.0 * math.pi * kind)
        # breaks lo_0, hi_0, lo_1, ...: [lo_k, hi_k) is ring center k's, the gaps the fallback's
        slots = np.full(2 * ring.size + 1, fallback)
        slots[1::2] = np.concatenate([order[-1:], order, order[:1]])
        owners.append(slots)
    table = np.concatenate([breaks[0], [2.0 * math.pi], breaks[1]])
    owners = np.concatenate(owners)

    def owner(u):
        phi, refl = angle_kind(u)
        return owners[np.searchsorted(table, phi + 4.0 * math.pi * refl, side="right")]

    return owner


def sharpness_witness(
    d: int,
    cells: int,
    samples_per_cell: int,
    seed: int = DEFAULT_SEED,
) -> tuple[MonicPencil, SymTuple, float]:
    """Discretized witness that the constant theta(d) cannot be improved.

    Averages Z(U) = U^T J_hat U over a Voronoi partition of Haar samples
    (Frobenius metric, one cell per representative) to form pencil
    coefficients A_j, and evaluates the tuple X_j = U_j^T J(s,t;1,1) U_j at
    the cell representatives.  As the partition refines,
    lambda_max(sum_j A_j (x) X_j) climbs to theta(d); the rigged vector
    (1/sqrt(d)) sum e_i (x) e_i already certifies the trace part exactly.

    Each U (centers and samples alike) is the Gram-Schmidt orthonormalization
    of a Gaussian d x d matrix, as in ``haar_orthogonal``.  A sample's cell
    is its nearest center, the first on a tie; for d = 2 it is found by
    angle (``_arc_owner``), where a sample with no center of its own kind
    (rotation or reflection) within a quarter turn goes to the lowest-index
    center of the other kind, all of which are exactly as near.

    Returns the pencil, the norm-one tuple, and the achieved lambda_max.
    """
    d, cells = _require_int("d", d, 2), _require_int("cells", cells, 1)
    samples_per_cell = _require_int("samples_per_cell", samples_per_cell, 1)
    report = theta(d)
    s, t = report.minimizer_s, report.minimizer_t
    ks, a_opt, b_opt = kappa_star(s, t)
    j_hat = np.array(SignDiag(s, t, a_opt, b_opt).diagonal())
    j_one = np.array(SignDiag(s, t, 1.0, 1.0).diagonal())

    rng = _generator(seed)
    centers = _haar_gram_schmidt(rng.standard_normal((cells, d, d)))
    x_mats = tuple((c.T * j_one) @ c for c in centers)
    owner_of = _arc_owner(centers) if d == 2 else _score_owner(centers)

    n_total = cells * samples_per_cell
    sums = np.zeros((d * d, cells))
    remaining = n_total
    # keeps the (rows x cells) score block near 2**20 entries
    batch = max(1, (1 << 20) // max(cells, 16 * d * d))
    while remaining > 0:
        m = min(batch, remaining)
        u = _haar_gram_schmidt(rng.standard_normal((m, d, d)))
        z = sum(j_hat[j] * u[:, j, :, None] * u[:, j, None, :] for j in range(d)).reshape(m, d * d)
        owner = owner_of(u)
        for e in range(d * d):
            sums[e] += np.bincount(owner, weights=z[:, e], minlength=cells)
        remaining -= m
    a_mats = tuple(0.5 * (a + a.T) for a in sums.T.reshape(cells, d, d) / (ks * n_total))

    pencil = MonicPencil(a_mats)
    witness = SymTuple(tuple(0.5 * (x + x.T) for x in x_mats))
    total = _kron_sum(pencil.coeffs, np.stack(witness.mats)[None])
    lam_max = float(np.linalg.eigvalsh(total[0])[-1])
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
        coeffs = doc["coeffs"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed pencil/tuple JSON: {exc}") from exc
    if g != len(coeffs):
        raise DomainError(f"declared g={g} but found {len(coeffs)} coefficient blocks")
    mats = []
    for flat in coeffs:
        arr = np.asarray(flat, dtype=float)
        if arr.size != nu * nu:
            raise DomainError(f"coefficient block has {arr.size} entries, expected {nu * nu}")
        mats.append(arr.reshape(nu, nu))
    return mats


def pencil_to_json(L: MonicPencil) -> str:
    return _mats_to_json(L.nu, L.coeffs)


def pencil_from_json(text: str) -> MonicPencil:
    return MonicPencil(tuple(_mats_from_json(text)))


def symtuple_to_json(X: SymTuple) -> str:
    return _mats_to_json(X.n, X.mats)


def symtuple_from_json(text: str) -> SymTuple:
    return SymTuple(tuple(_mats_from_json(text)))
