"""Monte Carlo evaluation of the sphere integrals behind theta, alpha/beta,
and the averaged sign matrix E_J.

This module is the anti-regression oracle for the closed forms in
``theta``: it knows nothing about incomplete beta functions and estimates
the integrals directly by sampling the uniform measure on S^(d-1) as
normalized standard Gaussian vectors.

Determinism contract: the generator is counter-based (Philox keyed by the
seed) and samples are consumed in fixed-size batches, so identical
(inputs, seed, n) draw bit-identical samples on any machine and under any
caller-side parallelism.  The estimates contract those samples through BLAS
matrix products, so they are bit-identical for one numpy/BLAS build on one
CPU type (whatever its thread count); another BLAS kernel may move their
last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .theta import SignDiag

DEFAULT_SEED = 0xC0FFEE
DEFAULT_SAMPLES = 1_000_000
_BATCH = 1 << 17  # fixed so the accumulation order never depends on n
_CHUNK = 1 << 13  # rows per x @ B product, so that no batch-sized temporary is made


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_err: float
    n_samples: int
    seed: int

    def agrees_with(self, reference: float, n_sigma: float = 3.0) -> bool:
        return abs(self.value - reference) <= n_sigma * self.std_err


@dataclass(frozen=True)
class McMatrixEstimate:
    """Entrywise Monte Carlo estimate of a matrix integral."""

    value: np.ndarray
    std_err: np.ndarray
    n_samples: int
    seed: int


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _require_symmetric(B: np.ndarray) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {B.shape}")
    if B.shape[0] < 1:
        raise DomainError("matrix must be at least 1x1")
    if np.max(np.abs(B - B.T), initial=0.0) > 1e-12:
        raise DomainError("matrix is not symmetric within 1e-12")
    return B


def _sphere_batches(d: int, n: int, seed: int):
    """Yield unit-vector batches drawn as normalized standard normals."""
    rng = _generator(seed)
    remaining = n
    while remaining > 0:
        m = min(_BATCH, remaining)
        x = rng.standard_normal((m, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        yield x
        remaining -= m


def _estimate(values_per_batch, n: int, seed: int) -> McEstimate:
    total = 0.0
    total_sq = 0.0
    for v in values_per_batch:
        total += float(v.sum())
        total_sq += float((v * v).sum())
    mean = total / n
    if n > 1:
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
        std_err = math.sqrt(var / n)
    else:
        std_err = 0.0
    return McEstimate(value=mean, std_err=std_err, n_samples=n, seed=seed)


def sphere_abs_quadratic_integral(
    B: np.ndarray, n: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> McEstimate:
    """Estimate of the integral of |xi* B xi| over the unit sphere.

    Unbiased under the uniform probability measure; for B = I every sample
    contributes exactly 1.
    """
    B = _require_symmetric(B)
    if n < 1:
        raise DomainError(f"need n >= 1 samples, got {n}")
    d = B.shape[0]

    def batches():
        for x in _sphere_batches(d, n, seed):
            quad = np.empty(len(x))
            for i in range(0, len(x), _CHUNK):
                rows = x[i : i + _CHUNK]
                quad[i : i + _CHUNK] = np.einsum("ni,ni->n", rows @ B, rows)
            yield np.abs(quad, out=quad)

    return _estimate(batches(), n, seed)


def sign_quadratic_moment(
    J: SignDiag, coord: int, n: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> McEstimate:
    """Estimate of the integral of sgn(xi* J xi) xi_coord^2 (coord 1-based).

    Matches +alpha for coord <= s and -beta for coord > s; the estimate is
    independent of which coordinate inside a block is chosen.
    """
    d = J.d
    if not (1 <= coord <= d):
        raise DomainError(f"coord must lie in 1..{d}, got {coord}")
    if n < 1:
        raise DomainError(f"need n >= 1 samples, got {n}")
    diag = np.array(J.diagonal())
    k = coord - 1

    def batches():
        for x in _sphere_batches(d, n, seed):
            q = (x * x) @ diag
            yield np.sign(q) * x[:, k] ** 2

    return _estimate(batches(), n, seed)


def e_j_matrix(
    J: SignDiag, n: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED, pad_zeros: int = 0
) -> McMatrixEstimate:
    """Entrywise estimate of E_J, the sphere average of sgn(xi* J xi) xi xi*.

    For J = J(s,t;a,b) the limit is the diagonal matrix
    J(s,t;alpha,beta); off-diagonal entries vanish.  ``pad_zeros`` appends
    that many zero diagonal entries, i.e. estimates E_{J (+) 0_u}, whose
    top-left block is the unpadded E_J shrunk by d/(d+u).
    """
    if pad_zeros < 0:
        raise DomainError(f"pad_zeros must be nonnegative, got {pad_zeros}")
    d = J.d + pad_zeros
    if n < 1:
        raise DomainError(f"need n >= 1 samples, got {n}")
    diag = np.array(J.diagonal() + [0.0] * pad_zeros)
    s1 = np.zeros((d, d))
    s2 = np.zeros((d, d))
    for x in _sphere_batches(d, n, seed):
        xx = x * x
        s1 += (x * np.sign(xx @ diag)[:, None]).T @ x
        s2 += xx.T @ xx  # sgn^2 == 1 a.s.
    mean = s1 / n
    if n > 1:
        var = np.maximum(s2 - n * mean * mean, 0.0) / (n - 1)
        std_err = np.sqrt(var / n)
    else:
        std_err = np.zeros((d, d))
    return McMatrixEstimate(value=mean, std_err=std_err, n_samples=n, seed=seed)
