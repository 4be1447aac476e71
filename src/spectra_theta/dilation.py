"""Explicit matrix-scale dilations and ball membership: spin (CAR) tuples,
the block-diagonal 1/g dilation, the two-variable spin-ball commuting
dilation via the Halmos defect construction, the Choi matrix embedding the
OH ball into the scaled spin ball, and the extreme-point predicate.

All eigenvalue work goes through the symmetric (self-adjoint) solver; no
general nonsymmetric path exists in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ResourceError, _require_int, _require_real
from .pencil import SymTuple, _kron_sum
from .sphere_oracle import DEFAULT_SEED, _generator, _require_symmetric

SPIN_CONSTRUCTION_CAP = 14  # matrices of size 2^13; int8 storage keeps this ~1 GB
SPIN_NORM_CAP = 8  # exact checks on matrices of size 2^(g-1): every g up to here in < 0.1 s
CHOI_CAP = 8

_SIGMA0 = np.array([[1, 0], [0, 1]], dtype=np.int8)
_SIGMA1 = np.array([[1, 0], [0, -1]], dtype=np.int8)
_SIGMA2 = np.array([[0, 1], [1, 0]], dtype=np.int8)
_SIGMA3 = np.array([[0, 1], [-1, 0]], dtype=np.int8)  # skew; conjugation flips the spin tuple


@dataclass(frozen=True)
class SpinSystem:
    """A g-tuple of integer symmetric matrices with P_j P_k + P_k P_j = 2 delta_jk I."""

    g: int
    mats: tuple[np.ndarray, ...]

    def float_mats(self) -> tuple[np.ndarray, ...]:
        return tuple(m.astype(float) for m in self.mats)


def spin_matrices(g: int) -> SpinSystem:
    """The canonical spin system of g symmetric matrices of size 2^(g-1).

    P_1 = s1 (x) s0 (x) ... (x) s0, P_j for 1 < j < g carries j-1 leading
    s2 factors, one s1, then s0 padding, and P_g = s2 (x) ... (x) s2.  The
    entries are in {-1, 0, 1} and the anticommutation relations hold in
    exact integer arithmetic.
    """
    if (g := _require_int("g", g, 2)) > SPIN_CONSTRUCTION_CAP:
        raise ResourceError(f"spin_matrices capped at g <= {SPIN_CONSTRUCTION_CAP}, got {g}")
    mats = []
    for j in range(1, g + 1):
        if j < g:
            factors = [_SIGMA2] * (j - 1) + [_SIGMA1] + [_SIGMA0] * (g - 1 - j)
        else:
            factors = [_SIGMA2] * (g - 1)
        p = factors[0]
        for f in factors[1:]:
            p = np.kron(p, f)
        mats.append(p)
    return SpinSystem(g=g, mats=tuple(mats))


def spin_tensor_norm(g: int) -> float:
    """Operator norm of sum_j P_j (x) P_j over the spin system of
    ``spin_matrices(g)``, which is exactly g.

    Checked in exact integer arithmetic on the 2^(g-1) spin matrices, never
    on the 4^(g-1) tensor square: each P_j is a symmetric signed permutation
    with P_j^2 = I, and the P_j anticommute.  Then the P_j (x) P_j commute,
    each is a symmetric orthogonal involution of norm 1, and each fixes
    vec(I); so vec(I) has eigenvalue g, and the triangle inequality bounds
    the norm by g.  Raises NumericError if a check fails.
    """
    if (g := _require_int("g", g, 2)) > SPIN_NORM_CAP:
        raise ResourceError(f"spin_tensor_norm capped at g <= {SPIN_NORM_CAP}, got {g}")
    mats = [p.astype(np.int64) for p in spin_matrices(g).mats]
    for j, p in enumerate(mats):
        if not (np.abs(p).sum(axis=1) == 1).all():
            raise NumericError(f"spin matrix P_{j + 1} is not a signed permutation")
    # P_j = diag(sign_j) I[perm_j], so P_j Q is the rows perm_j of Q times sign_j
    perms = [np.abs(p).argmax(axis=1) for p in mats]
    signs = [np.take_along_axis(p, perm[:, None], axis=1) for p, perm in zip(mats, perms)]
    prod = [[sign * q[perm] for q in mats] for sign, perm in zip(signs, perms)]
    eye = np.eye(len(mats[0]), dtype=np.int64)
    for j, p in enumerate(mats):
        if not (np.array_equal(p, p.T) and np.array_equal(prod[j][j], eye)):
            raise NumericError(f"spin matrix P_{j + 1} is not a symmetric involution")
        for k in range(j):
            if (prod[j][k] + prod[k][j]).any():
                raise NumericError(f"spin matrices P_{k + 1} and P_{j + 1} do not anticommute")
    return float(g)


def _lanes(X: SymTuple) -> np.ndarray:
    """X as a one-lane (1, g, n, n) stack."""
    return np.stack(X.mats)[None]


def _refuse(bad: np.ndarray, message: str, values: np.ndarray | None = None) -> None:
    """DomainError for the first lane where ``bad`` holds, naming the lane
    when there is more than one; ``message`` is formatted with that lane's
    entry of ``values``."""
    if bad.any():
        k = int(np.argmax(bad))
        text = message if values is None else message.format(float(values[k]))
        raise DomainError(text if bad.size == 1 else f"lane {k}: {text}")


def _in_spin_ball(xs: np.ndarray, tol: float) -> np.ndarray:
    """Spin-ball membership of each lane of an (m, g, n, n) stack, via sum_j P_j (x) X_j."""
    if xs.shape[1] == 1:
        eigs = np.linalg.eigvalsh(xs[:, 0])
        return np.maximum(-eigs[:, 0], eigs[:, -1]) <= 1.0 + tol
    total = _kron_sum(spin_matrices(xs.shape[1]).float_mats(), xs)
    return np.linalg.eigvalsh(np.eye(total.shape[1]) - total)[:, 0] >= -tol


def ball_membership(
    X: SymTuple,
    ball: str,
    tol: float = 1e-9,
    samples: int | None = None,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Membership of X in one of the matrix balls over R^g.

    * ``oh``:   lambda_max(sum X_j^2) <= 1 + tol;
    * ``spin``: lambda_min(I - sum X_j (x) P_j) >= -tol;
    * ``min_sampled``: max over sampled unit vectors v of the Euclidean
      norm of (v^T X_1 v, ..., v^T X_g v) is <= 1 + tol.  The sampled test
      is one-sided: it can accept a tuple just outside the min ball but
      never rejects a member.

    g = 1 degenerates for all three balls to the operator-norm ball.
    """
    tol = _require_real("tol", tol, 0.0)
    if ball == "oh":
        total = np.zeros((X.n, X.n))
        for m in X.mats:
            total += m @ m
        return float(np.linalg.eigvalsh(total)[-1]) <= 1.0 + tol
    if ball == "spin":
        return bool(_in_spin_ball(_lanes(X), tol)[0])
    if ball == "min_sampled":
        samples = _require_int("samples", 2048 if samples is None else samples, 1)
        return _min_ball_sampled(X, tol, samples, seed)
    raise DomainError(f"unknown ball {ball!r}; expected oh, spin, or min_sampled")


def _min_ball_sampled(X: SymTuple, tol: float, samples: int, seed: int) -> bool:
    rng = _generator(seed)
    v = rng.standard_normal((samples, X.n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    quad = np.stack([np.einsum("ni,ij,nj->n", v, m, v) for m in X.mats], axis=1)
    norms = np.linalg.norm(quad, axis=1)
    best = float(norms.max())
    # Local ascent from the most promising samples: power-iteration-style
    # steps on the direction matrix sum_j c_j X_j with c the current profile.
    order = np.argsort(norms)[-8:]
    for idx in order:
        w = v[idx]
        for _ in range(25):
            c = np.array([w @ m @ w for m in X.mats])
            nc = np.linalg.norm(c)
            if nc == 0.0:
                break
            direction = sum(cj * m for cj, m in zip(c / nc, X.mats))
            w_new = direction @ w
            nw = np.linalg.norm(w_new)
            if nw == 0.0:
                break
            w = w_new / nw
        best = max(best, float(np.linalg.norm([w @ m @ w for m in X.mats])))
    return best <= 1.0 + tol


@dataclass(frozen=True)
class DilationResult:
    """A commuting dilation T of some tuple X: V is an isometry with
    V^T T_j V = scale * X_j."""

    T: SymTuple
    V: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        v = np.asarray(self.V, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.T.n:
            raise DomainError(f"V must map into the dilation space, got shape {v.shape}")
        _check_dilations(_lanes(self.T), v, self.scale)
        object.__setattr__(self, "V", v)

    def compression(self) -> tuple[np.ndarray, ...]:
        """The compressed tuple (1/scale) V^T T_j V, which should equal X."""
        return tuple(_compressions(_lanes(self.T), self.V, self.scale)[0])

    def reconstruction_residual(self, X: SymTuple) -> float:
        return float(_reconstruction_residuals(_lanes(self.T), self.V, self.scale, _lanes(X))[0])


def _check_dilations(T: np.ndarray, V: np.ndarray, scale: float) -> np.ndarray:
    """DilationResult's checks on an (m, g, N, N) stack of dilation tuples that
    share V and the scale, lane by lane; returns each lane's largest commutator entry.
    Each test is written so that NaN fails it."""
    if not np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-12:
        raise DomainError("V is not an isometry within 1e-12")
    _require_real("scale", scale, 0.0, above=True)
    g = T.shape[1]
    worst = np.zeros(len(T))
    for j in range(g):
        for k in range(j + 1, g):
            comm = np.abs(T[:, j] @ T[:, k] - T[:, k] @ T[:, j]).max(axis=(1, 2))
            _refuse(~(comm <= 1e-10), f"dilation tuple does not commute: blocks {j}, {k}")
            worst = np.maximum(worst, comm)
    return worst


def _compressions(T: np.ndarray, V: np.ndarray, scale: float) -> np.ndarray:
    """(1/scale) V^T T_j V for every lane and j of an (m, g, N, N) stack."""
    return V.T @ T @ V / scale


def _reconstruction_residuals(T: np.ndarray, V: np.ndarray, scale: float, xs: np.ndarray) -> np.ndarray:
    """max_j max |(1/scale) V^T T_j V - X_j| per lane of the stacks T and X."""
    return np.abs(_compressions(T, V, scale) - xs).max(axis=(1, 2, 3))


def blockdiag_dilation(X: SymTuple) -> DilationResult:
    """Dilation of X to an exactly commuting tuple at scale 1/g.

    T_j is gn x gn with X_j in the j-th diagonal block and zeros elsewhere;
    the blocks are disjoint so T_j T_k = 0 = T_k T_j for j != k.  The
    isometry stacks 1/sqrt(g) copies of the identity, giving
    V^T T_j V = (1/g) X_j exactly.
    """
    T, v, scale = _blockdiag_stack(_lanes(X))
    return DilationResult(T=SymTuple(tuple(T[0])), V=v, scale=scale)


def _blockdiag_stack(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``blockdiag_dilation`` of each lane of an (m, g, n, n) stack: the
    dilation tuples (m, g, gn, gn), their shared isometry and scale.  The
    caller runs ``_check_dilations`` (``DilationResult`` does on one tuple)."""
    m, g, n = xs.shape[:3]
    T = np.zeros((m, g, g * n, g * n))
    for j in range(g):
        T[:, j, j * n : (j + 1) * n, j * n : (j + 1) * n] = xs[:, j]
    return T, np.vstack([np.eye(n)] * g) / math.sqrt(g), 1.0 / g


def defect_sqrt(S: np.ndarray) -> np.ndarray:
    """The defect (I - S^2)^(1/2) of a symmetric contraction S.

    Computed through the eigendecomposition of S; eigenvalues of I - S^2
    that dip below zero by rounding are clamped to 0 so boundary inputs
    (S^2 = I) do not error, while a genuine norm excess past 1 + 1e-12
    raises DomainError.
    """
    return _defect_stack(*np.linalg.eigh(_require_symmetric(S)[None]))[0]


def _defect_stack(lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``defect_sqrt`` of each lane of a stack from its ``eigh`` (``lam``,
    ``q``), with the contraction check run lane by lane."""
    norms = np.abs(lam).max(axis=1)
    _refuse(norms > 1.0 + 1e-12, "not a contraction: ||S|| = {}", norms)
    gaps = np.clip(1.0 - lam * lam, 0.0, None)
    d = (q * np.sqrt(gaps)[:, None, :]) @ q.swapaxes(-1, -2)
    return 0.5 * (d + d.swapaxes(-1, -2))


def spin2_dilation(X: SymTuple) -> DilationResult:
    """Commuting dilation (at scale 1) of a 2-tuple in the spin ball.

    Follows the Halmos-defect route: with S = [[X1, X2], [X2, -X1]] a
    contraction and D = (I - S^2)^(1/2) = [[d, e], [-e, d]] (e skew), the
    pair

        T1 = [[X1, e], [-e, X1]],   T2 = [[X2, d], [d, -X2]]

    commutes and satisfies T1^2 + T2^2 = I, so the joint spectrum sits on
    the unit circle.  Compressing to the first n coordinates recovers X
    exactly.
    """
    if X.g != 2:
        raise DomainError(f"spin2_dilation requires a 2-tuple, got g={X.g}")
    T, v, scale = _spin2_stack(_lanes(X))
    return DilationResult(T=SymTuple(tuple(T[0])), V=v, scale=scale)


def _spin2_stack(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``spin2_dilation`` of each lane of an (m, 2, n, n) stack of symmetric
    pairs: the dilation pairs (m, 2, 2n, 2n), their isometry and the scale 1.
    One ``eigh`` of S = [[X1, X2], [X2, -X1]] (permutation-similar to
    sum_j X_j (x) P_j) per lane gives the spin-ball check and the defect; a
    failing lane raises DomainError naming it.  The caller runs
    ``_check_dilations`` (``DilationResult`` does on one tuple)."""
    n = xs.shape[2]
    x1, x2 = xs[:, 0], xs[:, 1]
    lam, q = np.linalg.eigh(_blocks(x1, x2, x2, -x1))
    _refuse(lam[:, -1] > 1.0 + 1e-10, "tuple is not in the spin ball within 1e-10")
    defect = _defect_stack(lam, q)
    dd = 0.5 * (defect[:, :n, :n] + defect[:, n:, n:])
    dd = 0.5 * (dd + dd.swapaxes(-1, -2))
    e = 0.5 * (defect[:, :n, n:] - defect[:, n:, :n])
    e = 0.5 * (e - e.swapaxes(-1, -2))
    T = np.stack([_blocks(x1, e, -e, x1), _blocks(x2, dd, dd, -x2)], axis=1)
    return T, np.vstack([np.eye(n), np.zeros((n, n))]), 1.0


def _blocks(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The block matrices [[a, b], [c, d]] of stacks of square blocks; on
    small blocks ``np.block``'s per-call parsing costs more than the copy."""
    return np.concatenate([np.concatenate([a, b], -1), np.concatenate([c, d], -1)], -2)


def oh_to_spin_choi(g: int) -> np.ndarray:
    """Choi matrix of the unital map sending the OH-ball coefficients into
    the 1/sqrt(g)-scaled spin tuple.

    Block layout over (g+1) blocks of size 2^(g-1): top-left I/2, first
    block row (1/(2 sqrt g)) P_j, and lower-right block
    S = (1/(2g)) col(P) col(P)^T.  The Schur complement of the top-left
    block vanishes, so the matrix is positive semidefinite (and singular);
    the diagonal blocks sum to the identity, which is unitality.
    """
    if (g := _require_int("g", g, 2)) > CHOI_CAP:
        raise ResourceError(f"oh_to_spin_choi capped at g <= {CHOI_CAP}, got {g}")
    mats = spin_matrices(g).float_mats()
    m = mats[0].shape[0]
    col = np.vstack(mats)  # (g*m) x m
    size = (g + 1) * m
    choi = np.zeros((size, size))
    choi[:m, :m] = 0.5 * np.eye(m)
    row = col.T / (2.0 * math.sqrt(g))  # m x (g*m)
    choi[:m, m:] = row
    choi[m:, :m] = row.T
    choi[m:, m:] = col @ col.T / (2.0 * g)
    return choi


def spin2_extreme(X: SymTuple, tol: float = 1e-10) -> bool:
    """Extreme-point predicate for the two-variable spin ball: X must
    commute and Lambda(X) = [[X1, X2], [X2, -X1]] must square to I."""
    tol = _require_real("tol", tol, 0.0)
    if X.g != 2:
        raise DomainError(f"spin2_extreme requires a 2-tuple, got g={X.g}")
    x1, x2 = X.mats
    comm = x1 @ x2 - x2 @ x1
    lam = _blocks(x1, x2, x2, -x1)
    unitary_defect = lam @ lam - np.eye(2 * X.n)
    return (
        float(np.linalg.norm(comm, 2)) <= tol
        and float(np.linalg.norm(unitary_defect, 2)) <= tol
    )


def sign_flip_conjugator() -> np.ndarray:
    """The g = 2 witness u with (I (x) u)^T (sum X_j (x) P_j) (I (x) u)
    = -(sum X_j (x) P_j); a skew-symmetric orthogonal 2 x 2 matrix."""
    return _SIGMA3.astype(float)
