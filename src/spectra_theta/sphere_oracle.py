"""Monte Carlo evaluation of the sphere integrals behind theta, alpha/beta,
and the averaged sign matrix E_J.

This module is the anti-regression oracle for the closed forms in
``theta``: its estimators know nothing about incomplete beta functions and
estimate the integrals directly by sampling the uniform measure on S^(d-1)
as normalized standard Gaussian vectors.  Only ``oracle_sweep`` reads the
closed forms (``kappa_star`` and ``alpha_beta``), to hold the estimates to them.

Determinism contract: the generator is counter-based (Philox keyed by the
seed), and an estimate in dimension d from n samples reads the first n*d
normals of the seed's stream as n rows of d, consumed in fixed-size batches
of ``_BATCH`` rows, so its memory does not grow with n.  Identical (inputs,
seed, n) draw bit-identical samples on any machine and under any
caller-side parallelism, and estimates with the same (n, seed) read
prefixes of one stream: ``joint_estimates`` draws that stream once, for the
largest dimension asked, and each estimate is bit-identical to its
one-estimate call.  Each normal is squared once, and every estimate reads a
sample xi/|xi| from the raw row, its squares and |xi|^2 (dividing by
|xi|^2), never from a normalized copy.  The estimates contract the samples
through BLAS matrix products, so they are bit-identical for one numpy/BLAS
build on one CPU type (whatever its thread count); another BLAS kernel may
move their last bits.

``oracle_sweep`` holds eight estimates to their closed forms in ``theta``.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (DEFAULT_SEED, DomainError, _generator, _require_int, _require_items,
                     _require_real, _require_symmetric)
from .pencil import _eigvalsh
from .theta import SignDiag, alpha_beta, kappa_star

DEFAULT_SAMPLES = 1_000_000
# Rows per batch.  Fixed, so the accumulation order never depends on n (another
# size moves the estimates' last bits).  Sized to the cache by
# scripts/oracle_costs.py (its figures: README's numerics notes).
_BATCH = 1 << 14


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
        # sq @ ones, not np.add.reduce(sq, axis=1): BLAS is faster on short rows
        r2 = np.matmul(sq, np.ones(d), out=norms[: len(sq)])
        yield d, window[start - lo : end - lo].reshape(-1, d), sq, r2


def _mean_and_std_err(total, total_sq, n: int):
    """The mean of n samples and its standard error (0 for one sample), from
    their sum and sum of squares: floats, or arrays entrywise."""
    mean = total / n
    var = np.maximum(total_sq - n * mean * mean, 0.0) / max(n - 1, 1)
    return mean, np.sqrt(var / n) if n > 1 else np.zeros_like(var)


class _ScalarSum:
    """Sum and sum of squares of one scalar per sample, batch by batch."""

    d: int

    def start(self, rows: int) -> None:
        self.total = self.total_sq = 0.0

    def _add_values(self, v: np.ndarray, scratch: np.ndarray) -> None:
        self.total += float(v.sum())
        self.total_sq += float(np.multiply(v, v, out=scratch).sum())

    def result(self, n: int, seed: int) -> McEstimate:
        mean, std_err = _mean_and_std_err(self.total, self.total_sq, n)
        return McEstimate(value=mean, std_err=float(std_err), n_samples=n, seed=seed)


class AbsQuadratic(_ScalarSum):
    """``joint_estimates`` request for the sphere integral of |xi* B xi|
    (see ``sphere_abs_quadratic_integral``), read through the spectrum of B:
    its diagonal when B is diagonal, otherwise its eigenvalues lambda.  For
    B = Q diag(lambda) Q^T, Q^T xi is again uniform on the sphere, so each
    sample is |sq @ lambda| / |xi|^2 without a product x @ B."""

    def __init__(self, B: np.ndarray) -> None:
        B = _require_symmetric((B,))[0]
        self.d = B.shape[0]
        diag = np.diagonal(B)
        self.diag = diag.copy() if np.array_equal(B, np.diag(diag)) else _eigvalsh(B)

    def add(self, raw: np.ndarray, sq: np.ndarray, r2: np.ndarray, vec: np.ndarray) -> None:
        quad = np.matmul(sq, self.diag, out=vec[0, : len(raw)])
        np.divide(np.abs(quad, out=quad), r2, out=quad)
        self._add_values(quad, vec[1, : len(raw)])


class SignMoment(_ScalarSum):
    """``joint_estimates`` request for the sphere integral of
    sgn(xi* J xi) xi_coord^2 (see ``sign_quadratic_moment``)."""

    def __init__(self, J: SignDiag, coord: int) -> None:
        self.d = J.d
        self.k = _require_int("coord", coord, 1) - 1
        if self.k >= self.d:
            raise DomainError(f"coord must lie in 1..{self.d}, got {reprlib.repr(coord)}")
        self.diag = np.array(J.diagonal())

    def add(self, raw: np.ndarray, sq: np.ndarray, r2: np.ndarray, vec: np.ndarray) -> None:
        q, v = vec[:, : len(raw)]
        np.sign(np.matmul(sq, self.diag, out=q), out=q)
        np.multiply(q, np.divide(sq[:, self.k], r2, out=v), out=v)
        self._add_values(v, q)


class SignOuter:
    """``joint_estimates`` request for E_J, the sphere average of
    sgn(xi* J xi) xi xi*, with ``pad_zeros`` zero diagonal entries appended
    (see ``e_j_matrix``).  Its own (rows, d) matrix is made by ``start(rows)``,
    written by every ``add`` and dropped by ``result``."""

    def __init__(self, J: SignDiag, pad_zeros: int = 0) -> None:
        pad_zeros = _require_int("pad_zeros", pad_zeros, 0)
        self.d = J.d + pad_zeros
        self.diag = np.array(J.diagonal() + [0.0] * pad_zeros)

    def start(self, rows: int) -> None:
        self.s1 = np.zeros((self.d, self.d))
        self.s2 = np.zeros((self.d, self.d))
        self._w = np.empty((rows, self.d))

    def add(self, raw: np.ndarray, sq: np.ndarray, r2: np.ndarray, vec: np.ndarray) -> None:
        w = np.divide(sq, r2[:, None], out=self._w[: len(raw)])
        self.s2 += w.T @ w  # sgn^2 == 1 a.s.
        sgn = vec[0, : len(raw)]
        np.divide(np.sign(np.matmul(sq, self.diag, out=sgn), out=sgn), r2, out=sgn)
        self.s1 += np.multiply(raw, sgn[:, None], out=w).T @ raw

    def result(self, n: int, seed: int) -> McMatrixEstimate:
        self._w = None
        # (raw sgn / |xi|^2)^T raw rounds its (i, j) and (j, i) entries apart
        mean, std_err = _mean_and_std_err(0.5 * (self.s1 + self.s1.T), self.s2, n)
        return McMatrixEstimate(value=mean, std_err=std_err, n_samples=n, seed=seed)


def joint_estimates(requests, n: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> list:
    """The estimates of ``requests`` (``AbsQuadratic``, ``SignMoment`` and
    ``SignOuter``; anything else is refused before any draw), in order, from
    one pass over the seed's normal stream.

    Each estimate is bit-identical to its one-estimate call with the same
    (n, seed); the stream is drawn once, n * max(d) normals, instead of
    n * d per estimate.  ``start(rows)`` gets the batch's row count, min(n,
    ``_BATCH``).  A buffer that one request writes is its own; the two
    per-sample vectors that all reuse are one (2, rows) array, passed to ``add``.
    """
    requests = _require_items("requests", requests, (AbsQuadratic, SignMoment, SignOuter))
    n = _require_int("n", n, 1)
    _generator(seed)  # a bad seed is refused before any request makes a buffer
    if not requests:
        return []
    distinct = list({id(r): r for r in requests}.values())  # a repeated request sums once
    rows = min(n, _BATCH)
    for r in distinct:
        r.start(rows)
    vec = np.empty((2, rows))
    for d, *batch in _stream_batches({r.d for r in distinct}, n, seed):
        for r in distinct:
            if r.d == d:
                r.add(*batch, vec)
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


def oracle_sweep(samples: int, seed: int) -> tuple[list[dict], tuple[float, float, str]]:
    """The checks of ``verify oracle``, from one ``joint_estimates`` pass:
    kappa at five (s, t) and two sign moments within 3 standard errors of
    their closed forms, and E_J of J(2, 2) entrywise within 4.  Returns the
    violation records and the first check closest to its bound, as
    (deviation in standard errors, bound, where)."""
    samples = _require_int("--samples", samples, 2)  # one sample has no standard error
    shapes = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)]
    stars = {st: kappa_star(*st) for st in shapes}
    J = {st: SignDiag(*st, *stars[st][1:]) for st in shapes}
    requests = [AbsQuadratic(np.diag(J[st].diagonal())) for st in shapes]
    requests += [SignMoment(J[2, 1], 1), SignMoment(J[2, 1], 3), SignOuter(J[2, 2])]
    *estimates, ej = joint_estimates(requests, samples, seed)
    alpha, beta = alpha_beta(J[2, 1])
    checks = [({"check": "kappa_mc", "s": s, "t": t}, stars[s, t][0]) for s, t in shapes]
    checks += [({"check": "moment_mc", "coord": 1}, alpha),
               ({"check": "moment_mc", "coord": 3}, -beta)]
    bound, bound_ej = 3.0, 4.0  # in standard errors; E_J's entrywise
    violations, slack = [], []  # slack: (|mc - closed| / std_err, its bound, the check)
    for (check, closed), est in zip(checks, estimates):
        if not est.agrees_with(closed, bound):
            violations.append({**check, "closed": closed, "mc": est.value, "std_err": est.std_err})
        slack.append((abs(est.value - closed) / est.std_err if est.std_err else 0.0, bound, check))
    target = (stars[2, 2][0] / 4.0) * np.diag(SignDiag(2, 2, 1.0, 1.0).diagonal())
    deviation, std_err = np.abs(ej.value - target), np.maximum(ej.std_err, 1e-15)
    if (excess := float((deviation - bound_ej * std_err).max())) > 0.0:
        violations.append({"check": "e_j_mc", "max_excess": excess})
    sigmas = deviation / std_err
    i, j = np.unravel_index(sigmas.argmax(), sigmas.shape)
    slack.append((float(sigmas[i, j]), bound_ej, {"check": "e_j_mc", "i": i + 1, "j": j + 1}))
    sigma, bound, check = max(slack, key=lambda entry: entry[0] / entry[1])
    where = ", ".join(str(v) if k == "check" else f"{k}={v}" for k, v in check.items())
    return violations, (sigma, bound, where)
