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

from .errors import DomainError, NumericError, ResourceError
from .sphere_oracle import DEFAULT_SEED, _generator
from .theta import SignDiag, kappa_star, theta

SYMMETRY_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9
CUBE_VERTEX_CAP = 20


@dataclass(frozen=True)
class SymTuple:
    """A g-tuple of symmetric n x n real matrices."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.mats) == 0:
            raise DomainError("SymTuple needs at least one matrix")
        mats = tuple(np.asarray(m, dtype=float) for m in self.mats)
        n = mats[0].shape[0]
        for m in mats:
            if m.ndim != 2 or m.shape != (n, n):
                raise DomainError(f"all matrices must be square of one size, got {m.shape}")
            if np.max(np.abs(m - m.T), initial=0.0) > SYMMETRY_TOL:
                raise DomainError("matrix is not symmetric within 1e-12")
        object.__setattr__(self, "mats", mats)

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
        if len(self.coeffs) == 0:
            raise DomainError("MonicPencil needs at least one coefficient")
        coeffs = tuple(np.asarray(a, dtype=float) for a in self.coeffs)
        nu = coeffs[0].shape[0]
        for a in coeffs:
            if a.ndim != 2 or a.shape != (nu, nu):
                raise DomainError(f"all coefficients must be square of one size, got {a.shape}")
            if np.max(np.abs(a - a.T), initial=0.0) > SYMMETRY_TOL:
                raise DomainError("coefficient is not symmetric within 1e-12")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def g(self) -> int:
        return len(self.coeffs)

    @property
    def nu(self) -> int:
        return self.coeffs[0].shape[0]


def evaluate(L: MonicPencil, X: SymTuple) -> np.ndarray:
    """L(X) = I - sum_j A_j (x) X_j, a symmetric (nu n) x (nu n) matrix."""
    if L.g != X.g:
        raise DomainError(f"arity mismatch: pencil has g={L.g}, tuple has g={X.g}")
    size = L.nu * X.n
    out = np.eye(size)
    for a, x in zip(L.coeffs, X.mats):
        out -= np.kron(a, x)
    return out


def evaluate_scalar(L: MonicPencil, x) -> np.ndarray:
    """L(x) for a scalar point x in R^g."""
    x = np.asarray(x, dtype=float)
    if x.shape != (L.g,):
        raise DomainError(f"expected a point in R^{L.g}, got shape {x.shape}")
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
    if tol < 0.0:
        raise DomainError(f"tol must be nonnegative, got {tol}")
    return min_eigenvalue(evaluate(L, X)) >= -tol


def cube_pencil(g: int) -> MonicPencil:
    """The pencil of size 2g whose spectrahedron is the cube [-1, 1]^g:
    C_j = diag(1, -1) (x) E_j."""
    if g < 1:
        raise DomainError(f"cube_pencil requires g >= 1, got {g}")
    coeffs = []
    for j in range(g):
        e = np.zeros((g, g))
        e[j, j] = 1.0
        coeffs.append(np.kron(np.diag([1.0, -1.0]), e))
    return MonicPencil(tuple(coeffs))


def haar_orthogonal(d: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """A Haar-distributed d x d orthogonal matrix (QR of a Gaussian matrix
    with the R-diagonal signs folded in)."""
    if d < 1:
        raise DomainError(f"haar_orthogonal requires d >= 1, got {d}")
    return _haar_batch(_generator(seed), 1, d)[0]


def _haar_batch(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    return _haar_from_gaussian(rng.standard_normal((m, d, d)))


def _haar_from_gaussian(z: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(z)
    signs = np.sign(np.einsum("nii->ni", r))
    signs[signs == 0.0] = 1.0
    return q * signs[:, None, :]


def _haar_gram_schmidt(z: np.ndarray) -> np.ndarray:
    """The orthonormalized columns of each matrix in the stack ``z``:
    classical Gram-Schmidt, run twice ("twice is enough").

    This is the Q factor whose R has a positive diagonal, the matrix
    ``_haar_from_gaussian`` forms with LAPACK, up to rounding.  A column
    whose remainder has norm zero (probability zero for Gaussian z) raises
    NumericError rather than returning NaN.
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
    q = _haar_from_gaussian(z.reshape(trials * g, n, n))
    d = np.zeros((trials * g, n, n))
    d[:, range(n), range(n)] = diag.reshape(trials * g, n)
    m = q.swapaxes(-1, -2) @ d @ q
    return (0.5 * (m + m.swapaxes(-1, -2))).reshape(trials, g, n, n)


def verify_cube_inclusion(B: MonicPencil, tol: float = 1e-10) -> bool:
    """Vertex-enumeration check that [-1, 1]^g is inside S_{L_B}.

    By convexity it suffices to test the 2^g cube vertices.  Refuses g > 20
    rather than falling back to sampling, which would silently weaken the
    precondition of the relaxation test.
    """
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
    if d < 1 or trials < 1:
        raise DomainError(f"need d >= 1 and trials >= 1, got d={d}, trials={trials}")
    if tol < 0.0:
        raise DomainError(f"tol must be nonnegative, got {tol}")
    if not verify_cube_inclusion(B):
        raise DomainError("[-1,1]^g is not contained in the pencil's spectrahedron")
    th = theta(B.nu).theta
    X = _contraction_stack(B.g, d, trials, _generator(seed))
    # S_k = sum_j B_j (x) X_kj, summed over j in the one-trial order so that
    # every trial keeps the bits of its own spectrum
    S = sum(np.einsum("ab,kxy->kaxby", b, X[:, j]) for j, b in enumerate(B.coeffs))
    lam_maxes = _eigvalsh(S.reshape(trials, B.nu * d, B.nu * d))[:, -1].tolist()
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
    of a Gaussian d x d matrix: the same Haar law as ``haar_orthogonal``, whose
    LAPACK QR gives the same matrix up to its last bits, not bit for bit.

    Returns the pencil, the norm-one tuple, and the achieved lambda_max.
    """
    if d < 2:
        raise DomainError(f"sharpness_witness requires d >= 2, got {d}")
    if cells < 1 or samples_per_cell < 1:
        raise DomainError("cells and samples_per_cell must be >= 1")
    report = theta(d)
    s, t = report.minimizer_s, report.minimizer_t
    ks, a_opt, b_opt = kappa_star(s, t)
    j_hat = np.array(SignDiag(s, t, a_opt, b_opt).diagonal())
    j_one = np.array(SignDiag(s, t, 1.0, 1.0).diagonal())

    rng = _generator(seed)
    centers = _haar_gram_schmidt(rng.standard_normal((cells, d, d)))
    x_mats = tuple((c.T * j_one) @ c for c in centers)
    centers_flat = centers.reshape(cells, d * d)

    n_total = cells * samples_per_cell
    sums = np.zeros((d * d, cells))
    remaining = n_total
    # keeps the (rows x cells) score block near 2**20 entries
    batch = max(1, (1 << 20) // max(cells, 16 * d * d))
    while remaining > 0:
        m = min(batch, remaining)
        u = _haar_gram_schmidt(rng.standard_normal((m, d, d)))
        z = sum(j_hat[j] * u[:, j, :, None] * u[:, j, None, :] for j in range(d)).reshape(m, d * d)
        # nearest center in Frobenius distance == largest trace inner product
        owner = np.argmax(u.reshape(m, d * d) @ centers_flat.T, axis=1)
        for e in range(d * d):
            sums[e] += np.bincount(owner, weights=z[:, e], minlength=cells)
        remaining -= m
    a_mats = tuple(0.5 * (a + a.T) for a in sums.T.reshape(cells, d, d) / (ks * n_total))

    pencil = MonicPencil(a_mats)
    witness = SymTuple(tuple(0.5 * (x + x.T) for x in x_mats))
    total = np.zeros((d * d, d * d))
    for a, x in zip(pencil.coeffs, witness.mats):
        total += np.kron(a, x)
    lam_max = float(np.linalg.eigvalsh(total)[-1])
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


def _mats_from_json(text: str) -> tuple[int, list[np.ndarray]]:
    try:
        doc = json.loads(text)
        nu = int(doc["nu"])
        g = int(doc["g"])
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
    return nu, mats


def pencil_to_json(L: MonicPencil) -> str:
    return _mats_to_json(L.nu, L.coeffs)


def pencil_from_json(text: str) -> MonicPencil:
    _, mats = _mats_from_json(text)
    return MonicPencil(tuple(mats))


def symtuple_to_json(X: SymTuple) -> str:
    return _mats_to_json(X.n, X.mats)


def symtuple_from_json(text: str) -> SymTuple:
    _, mats = _mats_from_json(text)
    return SymTuple(tuple(mats))
