"""Exception taxonomy shared by every module.

Three failure classes are distinguished so the command line driver can map
them onto distinct exit codes: bad inputs (DomainError), iterative methods
that fail to converge or internal cross-checks that disagree (NumericError),
and requests whose memory/size cost exceeds a hard cap (ResourceError).
"""

import math
import numbers
import operator
import reprlib


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
