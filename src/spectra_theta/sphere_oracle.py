"""Monte Carlo evaluation of the sphere integrals behind theta, alpha/beta,
and the averaged sign matrix E_J.

This module is the anti-regression oracle for the closed forms in
``theta``: it knows nothing about incomplete beta functions and estimates
the integrals directly by sampling the uniform measure on S^(d-1) as
normalized standard Gaussian vectors.

Determinism contract: the generator is counter-based (Philox keyed by the
seed), and an estimate in dimension d from n samples reads the first n*d
normals of the seed's stream as n rows of d, consumed in fixed-size batches
of ``_BATCH`` rows.  So identical (inputs, seed, n) draw bit-identical
samples on any machine and under any caller-side parallelism, and estimates
with the same (n, seed) read prefixes of one stream: ``joint_estimates``
draws that stream once, for the largest dimension asked, and each estimate
is bit-identical to its one-estimate call.  Each normal is squared once,
and every estimate reads a sample xi/|xi| from the raw row, its squares and
|xi|^2 (dividing by |xi|^2), never from a normalized copy.  The estimates
contract the samples through BLAS matrix products, so they are
bit-identical for one numpy/BLAS build on one CPU type (whatever its thread
count); another BLAS kernel may move their last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, _require_int, _require_real
from .theta import SignDiag

DEFAULT_SEED = 0xC0FFEE
DEFAULT_SAMPLES = 1_000_000
SYMMETRY_TOL = 1e-12
_BATCH = 1 << 17  # fixed so the accumulation order never depends on n
_CHUNK = 1 << 13  # rows per x @ B product: no batch-sized temporary


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_err: float
    n_samples: int
    seed: int

    def agrees_with(self, reference: float, n_sigma: float = 3.0) -> bool:
        reference = _require_real("reference", reference)
        return abs(self.value - reference) <= _require_real("n_sigma", n_sigma, 0.0) * self.std_err


@dataclass(frozen=True)
class McMatrixEstimate:
    """Entrywise Monte Carlo estimate of a matrix integral."""

    value: np.ndarray
    std_err: np.ndarray
    n_samples: int
    seed: int


def _generator(seed: int) -> np.random.Generator:
    if (seed := _require_int("seed", seed, 0)) >> 128:
        raise DomainError(f"seed must be below 2**128, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def _require_symmetric(B: np.ndarray) -> np.ndarray:
    """B as a float matrix, refused unless it is square, at least 1x1, finite
    and symmetric within ``SYMMETRY_TOL``: the package's one such check."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {B.shape}")
    if B.shape[0] < 1:
        raise DomainError("matrix must be at least 1x1")
    if not np.isfinite(B).all():
        raise DomainError("matrix entries must be finite")
    if np.max(np.abs(B - B.T)) > SYMMETRY_TOL:
        raise DomainError(f"matrix is not symmetric within {SYMMETRY_TOL:g}")
    return B


def _stream_batches(dims, n: int, seed: int):
    """Yield (d, raw, sq, r2) for every batch that an estimate in dimension d
    (for d in ``dims``) reads: raw holds rows [b, b + m) of its n samples,
    which are the stream normals [b*d, (b + m)*d) as rows of d, sq their
    squares, and r2 their squared norms |xi|^2, one BLAS row sum of sq.

    Batches come in the order their ends occur in the stream, so one pass
    of the generator serves every dimension.  The stream is drawn into a
    window the size of one batch of the widest dimension, and each normal
    is squared once, into a second window that moves with the first; when
    a batch would run past their end, both shift forward to the earliest
    start still to be served, which lies at most one window behind that
    batch's end.  The arrays are views of reused buffers, valid until the
    next batch.
    """
    rows = min(n, _BATCH)
    width = max(dims)
    batches = sorted((min(b + _BATCH, n) * d, b * d, d)  # (end, start, d) in the stream
                     for d in set(dims) for b in range(0, n, _BATCH))
    keep = list(accumulate([start for _, start, _ in reversed(batches)], min))[::-1]
    rng = _generator(seed)
    window, squares, norms = np.empty(rows * width), np.empty(rows * width), np.empty(rows)
    lo = hi = 0  # the windows hold stream normals [lo, hi) and their squares
    for (end, start, d), first in zip(batches, keep):
        if end - lo > len(window):
            window[: hi - first] = window[first - lo : hi - lo]
            squares[: hi - first] = squares[first - lo : hi - lo]
            lo = first
        if end > hi:
            fresh = rng.standard_normal(out=window[hi - lo : end - lo])
            np.multiply(fresh, fresh, out=squares[hi - lo : end - lo])
            hi = end
        sq = squares[start - lo : end - lo].reshape(-1, d)
        # sq @ ones, not np.add.reduce(sq, axis=1): BLAS is ~10x faster on short rows
        r2 = np.matmul(sq, np.ones(d), out=norms[: len(sq)])
        yield d, window[start - lo : end - lo].reshape(-1, d), sq, r2


class _Scratch:
    """Buffers that the requests reuse from batch to batch: two vectors of
    one batch, an (m, d) matrix for ``SignOuter``, and one ``_CHUNK``-row
    piece for ``AbsQuadratic`` with a B that is not diagonal."""

    def __init__(self, rows: int, requests: list) -> None:
        self.vec = np.empty((2, rows))
        self._mat = np.empty(rows * max((r.d for r in requests if isinstance(r, SignOuter)),
                                        default=0))
        self._chunk = np.empty(min(rows, _CHUNK) * max(
            (r.d for r in requests if isinstance(r, AbsQuadratic) and r.diag is None), default=0))

    def matrix(self, m: int, d: int) -> np.ndarray:
        return self._mat[: m * d].reshape(m, d)

    def chunk(self, k: int, d: int) -> np.ndarray:
        return self._chunk[: k * d].reshape(k, d)


class _ScalarSum:
    """Sum and sum of squares of one scalar per sample, batch by batch."""

    d: int

    def start(self) -> None:
        self.total = self.total_sq = 0.0

    def _add_values(self, v: np.ndarray, scratch: np.ndarray) -> None:
        self.total += float(v.sum())
        self.total_sq += float(np.multiply(v, v, out=scratch).sum())

    def result(self, n: int, seed: int) -> McEstimate:
        mean = self.total / n
        if n > 1:
            var = max(self.total_sq - n * mean * mean, 0.0) / (n - 1)
            std_err = math.sqrt(var / n)
        else:
            std_err = 0.0
        return McEstimate(value=mean, std_err=std_err, n_samples=n, seed=seed)


class AbsQuadratic(_ScalarSum):
    """``joint_estimates`` request for the sphere integral of |xi* B xi|
    (see ``sphere_abs_quadratic_integral``).  A diagonal B needs only the
    squared normals: |sq @ diag B| / |xi|^2."""

    def __init__(self, B: np.ndarray) -> None:
        self.B = _require_symmetric(B)
        self.d = self.B.shape[0]
        diag = np.diagonal(self.B)
        self.diag = diag.copy() if np.array_equal(self.B, np.diag(diag)) else None

    def add(self, raw: np.ndarray, sq: np.ndarray, r2: np.ndarray, scratch: _Scratch) -> None:
        quad = scratch.vec[0, : len(raw)]
        if self.diag is not None:
            np.matmul(sq, self.diag, out=quad)
        else:
            for i in range(0, len(raw), _CHUNK):
                rows = raw[i : i + _CHUNK]
                prod = np.matmul(rows, self.B, out=scratch.chunk(len(rows), self.d))
                np.einsum("ni,ni->n", prod, rows, out=quad[i : i + _CHUNK])
        np.divide(np.abs(quad, out=quad), r2, out=quad)
        self._add_values(quad, scratch.vec[1, : len(raw)])


class SignMoment(_ScalarSum):
    """``joint_estimates`` request for the sphere integral of
    sgn(xi* J xi) xi_coord^2 (see ``sign_quadratic_moment``)."""

    def __init__(self, J: SignDiag, coord: int) -> None:
        self.d = J.d
        self.k = _require_int("coord", coord, 1) - 1
        if self.k >= self.d:
            raise DomainError(f"coord must lie in 1..{self.d}, got {coord}")
        self.diag = np.array(J.diagonal())

    def add(self, raw: np.ndarray, sq: np.ndarray, r2: np.ndarray, scratch: _Scratch) -> None:
        q, v = scratch.vec[:, : len(raw)]
        np.sign(np.matmul(sq, self.diag, out=q), out=q)
        np.multiply(q, np.divide(sq[:, self.k], r2, out=v), out=v)
        self._add_values(v, q)


class SignOuter:
    """``joint_estimates`` request for E_J, the sphere average of
    sgn(xi* J xi) xi xi*, with ``pad_zeros`` zero diagonal entries appended
    (see ``e_j_matrix``)."""

    def __init__(self, J: SignDiag, pad_zeros: int = 0) -> None:
        pad_zeros = _require_int("pad_zeros", pad_zeros, 0)
        self.d = J.d + pad_zeros
        self.diag = np.array(J.diagonal() + [0.0] * pad_zeros)

    def start(self) -> None:
        self.s1 = np.zeros((self.d, self.d))
        self.s2 = np.zeros((self.d, self.d))

    def add(self, raw: np.ndarray, sq: np.ndarray, r2: np.ndarray, scratch: _Scratch) -> None:
        w = np.divide(sq, r2[:, None], out=scratch.matrix(len(raw), self.d))
        self.s2 += w.T @ w  # sgn^2 == 1 a.s.
        sgn = scratch.vec[0, : len(raw)]
        np.divide(np.sign(np.matmul(sq, self.diag, out=sgn), out=sgn), r2, out=sgn)
        self.s1 += np.multiply(raw, sgn[:, None], out=w).T @ raw

    def result(self, n: int, seed: int) -> McMatrixEstimate:
        # (raw sgn / |xi|^2)^T raw rounds its (i, j) and (j, i) entries apart
        mean = 0.5 * (self.s1 + self.s1.T) / n
        if n > 1:
            var = np.maximum(self.s2 - n * mean * mean, 0.0) / (n - 1)
            std_err = np.sqrt(var / n)
        else:
            std_err = np.zeros((self.d, self.d))
        return McMatrixEstimate(value=mean, std_err=std_err, n_samples=n, seed=seed)


def joint_estimates(requests, n: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> list:
    """The estimates of ``requests`` (``AbsQuadratic``, ``SignMoment`` and
    ``SignOuter``), in order, from one pass over the seed's normal stream.

    Each estimate is bit-identical to its one-estimate call with the same
    (n, seed); the stream is drawn once, n * max(d) normals, instead of
    n * d per estimate.
    """
    requests = list(requests)
    n = _require_int("n", n, 1)
    if not requests:
        return []
    distinct = list({id(r): r for r in requests}.values())  # a repeated request sums once
    scratch = _Scratch(min(n, _BATCH), distinct)
    for r in distinct:
        r.start()
    for d, *batch in _stream_batches({r.d for r in distinct}, n, seed):
        for r in distinct:
            if r.d == d:
                r.add(*batch, scratch)
    return [r.result(n, seed) for r in requests]


def sphere_abs_quadratic_integral(
    B: np.ndarray, n: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> McEstimate:
    """Estimate of the integral of |xi* B xi| over the unit sphere.

    Unbiased under the uniform probability measure; for B = I every sample
    contributes exactly 1.
    """
    return joint_estimates([AbsQuadratic(B)], n, seed)[0]


def sign_quadratic_moment(
    J: SignDiag, coord: int, n: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> McEstimate:
    """Estimate of the integral of sgn(xi* J xi) xi_coord^2 (coord 1-based).

    Matches +alpha for coord <= s and -beta for coord > s; the estimate is
    independent of which coordinate inside a block is chosen.
    """
    return joint_estimates([SignMoment(J, coord)], n, seed)[0]


def e_j_matrix(
    J: SignDiag, n: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED, pad_zeros: int = 0
) -> McMatrixEstimate:
    """Entrywise estimate of E_J, the sphere average of sgn(xi* J xi) xi xi*.

    For J = J(s,t;a,b) the limit is the diagonal matrix
    J(s,t;alpha,beta); off-diagonal entries vanish.  ``pad_zeros`` appends
    that many zero diagonal entries, i.e. estimates E_{J (+) 0_u}, whose
    top-left block is the unpadded E_J shrunk by d/(d+u).
    """
    return joint_estimates([SignOuter(J, pad_zeros)], n, seed)[0]
