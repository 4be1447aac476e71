"""Exception taxonomy shared by every module.

Three failure classes are distinguished so the command line driver can map
them onto distinct exit codes: bad inputs (DomainError), iterative methods
that fail to converge or internal cross-checks that disagree (NumericError),
and requests whose memory/size cost exceeds a hard cap (ResourceError).
Beside them sit the package's one check for each kind of argument.
"""

# annotations unevaluated: np.random loads with the first _generator; _uniforms,
# the seed's reader for uniforms alone, never loads it
from __future__ import annotations

import math
import numbers
import operator
import reprlib

import numpy as np

DEFAULT_SEED = 0xC0FFEE
SYMMETRY_TOL = 1e-12
_SYMMETRY_SLICE = 1 << 16  # entries per slice of the symmetry check


class SpectraThetaError(Exception):
    """Base class for all library errors."""


class DomainError(SpectraThetaError, ValueError):
    """An argument violates a documented precondition."""


class NumericError(SpectraThetaError, ArithmeticError):
    """An iteration failed to converge or an internal cross-check failed."""


class ResourceError(SpectraThetaError):
    """The request exceeds a hard size cap (dense matrices would get too big)."""


def _require_int(name: str, value, least: int) -> int:
    """``value`` as a Python int, refused with DomainError unless it is a
    Python or numpy integer (never a bool) of at least ``least``: the
    package's one check of a count, size or seed argument."""
    try:
        if not isinstance(value, bool) and operator.index(value) >= least:
            return operator.index(value)
    except TypeError:  # not an integer, or an array of more than one
        pass
    raise DomainError(f"{name} must be an integer of at least {least}, got {reprlib.repr(value)}")


def _require_real(name: str, value, least: float = -math.inf, most: float = math.inf, *,
                  above: bool = False) -> float:
    """``value`` as a float, refused with DomainError unless it is a Python or
    numpy real number (never a bool), finite and in [least, most], or in
    (least, most] when ``above`` is set: the package's one check of a real
    argument.  A string, an array or an int past the float range is refused.
    A refusal prints at most about 40 characters of the value (``reprlib``)."""
    x = value
    if type(x) is not float:  # the fast path: a float is taken as it is
        try:
            x = float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
        except OverflowError:  # an int past the float range
            x = math.nan
    if (least < x if above else least <= x) and x <= most and math.isfinite(x):
        return x
    where = "positive" if above else "nonnegative"
    if (least, most) != (0.0, math.inf):
        where = ("real" if -least == most == math.inf
                 else f"in {'(' if above else '['}{least:g}, {most:g}]")
    raise DomainError(f"{name} must be finite and {where}, got {reprlib.repr(value)}")


def _require_items(name: str, value, kinds: tuple[type, ...] = (object,)) -> list:
    """``value`` as a list, refused with DomainError unless it is iterable and
    each of its items is an instance of one of ``kinds``: the package's one
    check of a batch argument, made before any item is used."""
    try:
        items = list(value)
    except TypeError:
        raise DomainError(f"{name} must be iterable, got {reprlib.repr(value)}") from None
    for item in items:
        if not isinstance(item, kinds):
            names = " or ".join(kind.__name__ for kind in kinds)
            raise DomainError(f"each item of {name} must be of type {names}, got {reprlib.repr(item)}")
    return items


def _require_seed(seed) -> int:
    """``seed`` as a Python int, refused with DomainError unless it is an
    integer (``_require_int``) in [0, 2**128), the Philox key range: the
    package's one check of a seed."""
    if (seed := _require_int("seed", seed, 0)) >> 128:
        raise DomainError(f"seed must be below 2**128, got {reprlib.repr(seed)}")
    return seed


def _generator(seed: int) -> np.random.Generator:
    """The Philox generator keyed by ``seed`` (``_require_seed``): the
    package's one place that keys a generator."""
    return np.random.Generator(np.random.Philox(key=_require_seed(seed)))


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64 round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # and key bumps
_MASK64 = (1 << 64) - 1


def _mulhi(x: np.ndarray, m: int) -> np.ndarray:
    """The high 64 bits of each x * m, summed from 32-bit halves, whose
    products fit in a uint64."""
    x_lo, x_hi, m_lo, m_hi = x & 0xFFFFFFFF, x >> 32, m & 0xFFFFFFFF, m >> 32
    cross, inner = x_lo * m_hi, x_hi * m_lo
    carry = ((x_lo * m_lo >> 32) + (cross & 0xFFFFFFFF) + (inner & 0xFFFFFFFF)) >> 32
    return x_hi * m_hi + (cross >> 32) + (inner >> 32) + carry


def _uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` doubles of ``_generator(seed).random()``, bit for
    bit, without loading numpy.random: the Philox4x64-10 function (Salmon et
    al., SC 2011) in uint64 integer arithmetic, so every dispatch target gives
    the same bits.  Block k = 1, 2, ... runs counter (k, 0, 0, 0) under key
    (seed mod 2**64, seed >> 64), the key bumped after each round (in Python
    ints, which wrap without a numpy overflow warning); its four words follow
    in order, and a word w gives (w >> 11) 2**-53."""
    seed, count = _require_seed(seed), _require_int("count", count, 0)
    x0 = np.arange(1, -(-count // 4) + 1, dtype=np.uint64)
    x1 = x2 = x3 = np.zeros_like(x0)
    k0, k1 = seed & _MASK64, seed >> 64
    for _ in range(10):
        hi0, hi1 = _mulhi(x0, _PHILOX_M[0]), _mulhi(x2, _PHILOX_M[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, x2 * _PHILOX_M[1], hi0 ^ x3 ^ k1, x0 * _PHILOX_M[0]
        k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
    return (np.stack([x0, x1, x2, x3], 1).ravel()[:count] >> 11) * 2.0**-53


def _require_symmetric(mats) -> np.ndarray:
    """The batch ``mats`` as one (g, n, n) float stack, refused unless it is iterable
    (``_require_items``) and holds one or more real matrices of one size, each square, at
    least 1x1, finite and symmetric within ``SYMMETRY_TOL``: the package's one such check.
    A matrix B is checked as ``(B,)``.  The stack is the one copy made: symmetry is checked
    in slices of whole matrices, about ``_SYMMETRY_SLICE`` entries each (one matrix if larger),
    and integer matrices are converted in ``np.stack``, exactly."""
    mats = _require_items("matrices", mats)
    try:
        B = np.stack(mats, dtype=float)
    except (TypeError, ValueError) as exc:  # no matrix, an entry that is not a real number, or two sizes
        if len(mats) == 1:
            raise DomainError("matrix entries must be real numbers") from exc
        sizes = [_require_symmetric((m,)).shape[1:] for m in mats]  # the first faulty one is refused
        raise DomainError(f"need one or more matrices of one size, got {reprlib.repr(sizes)}") from exc
    if B.ndim != 3 or B.shape[1] != B.shape[2]:
        raise DomainError(f"expected a square matrix, got shape {B.shape[1:]}")
    if B.shape[1] < 1:
        raise DomainError("matrix must be at least 1x1")
    if not np.isfinite(B).all():
        raise DomainError("matrix entries must be finite")
    step = max(1, _SYMMETRY_SLICE // B.shape[1] ** 2)
    for part in (B[k : k + step] for k in range(0, len(B), step)):
        # B - B^T is antisymmetric to the bit, so its largest entry is its largest |entry|
        if np.max(part - part.swapaxes(1, 2)) > SYMMETRY_TOL:
            raise DomainError(f"matrix is not symmetric within {SYMMETRY_TOL:g}")
    return B
