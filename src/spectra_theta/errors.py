"""Exception taxonomy shared by every module.

Three failure classes are distinguished so the command line driver can map
them onto distinct exit codes: bad inputs (DomainError), iterative methods
that fail to converge or internal cross-checks that disagree (NumericError),
and requests whose memory/size cost exceeds a hard cap (ResourceError).
"""

import operator


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
    raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")
