"""Exception hierarchy shared across the package, the one rule for an
integer argument, and the verifiers' one check of a tolerance argument."""

import numbers
import sys


class NatorusError(Exception):
    """Base class for all package errors.

    Carries the offending argument tuple in ``witness`` when available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidGroupError(NatorusError):
    """Raised for empty factor lists or factors below 2."""


class IncompatibleGroupsError(NatorusError):
    """Raised when an operation mixes elements of groups with different factors."""


class TensorShapeError(NatorusError):
    """Raised when a tensor or matrix does not match the group's rank, or when
    an operation on one element is given a stack of them."""


class CochainError(NatorusError):
    """Raised for malformed cochains: bad normalization, modulus, or arity."""


class NotACocycleError(CochainError):
    """Raised when an operation requires a cocycle and the input fails delta = 0;
    ``witness`` is the first failing argument tuple."""


class GradingError(NatorusError):
    """Raised when blocks fed to a graded element are not isotypic, or when
    an action fails to be a homomorphism by *-automorphisms."""


class TwistDataError(NatorusError):
    """Raised when (beta, u, phi) fail the crossed-product compatibility relations."""


class BundleConstructionError(NatorusError):
    """Raised when bundle data cannot be realized (bad sigma, untrivializable phi)."""


class ConfigError(NatorusError):
    """Raised for malformed JSON configuration input (CLI exit code 2)."""


def require_int(value, what: str, minimum: int | None = None, error=ConfigError) -> int:
    """value as an int, refused with `error` when it is a bool or not an
    integer (`numbers.Integral`: a float or a string is refused, a numpy
    integer is not), or when it is below minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} {value!r} is not an integer")
    value = int(value)
    if minimum is not None and value < minimum:
        raise error(f"{what} {value} is below {minimum}")
    return value


def require_tol(tol) -> None:
    """Refuse a tol outside [0, sys.float_info.max] (NaN, inf, a bool) with
    ConfigError: an infinite tol would pass every float verdict."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and 0 <= tol <= sys.float_info.max):
        raise ConfigError(f"tol {tol!r} must be a finite non-negative number")
