"""Exception types shared across the package, the integer and real argument
checks, and the guards that read a serialized strategy."""

import numbers
from contextlib import contextmanager

import numpy as np


class GracError(Exception):
    """Base class for all errors raised by this package."""


class WidthMismatchError(GracError):
    """Two objects built for different input widths were combined."""


class WidthOutOfRangeError(GracError):
    """Requested input width outside the supported range."""


class WrongCardinalityError(GracError):
    """A function set of the wrong size was passed to a size-specific operation."""


class CardinalityMismatchError(GracError):
    """A lifted strategy does not match the size of the target question set."""


class UnknownCaseError(GracError):
    """No reference protocol is defined under the requested name."""


class NoCrossingError(GracError):
    """The two noise curves never trade places on the sweep domain."""


class DimensionMismatchError(GracError):
    """Operator dimensions inconsistent with the declared strategy layout."""


class InvalidEffectError(GracError):
    """A measurement effect or state violates positivity or completeness."""


class InvalidInputError(GracError, ValueError):
    """An argument or a serialized strategy lies outside its valid domain."""


def check_integer(what: str, value) -> None:
    """Refuse anything but an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def check_real(what: str, value) -> None:
    """Refuse anything but a real number; a bool is not one.  The caller checks its range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{what} must be a real number, got {value!r}")


def read_reals(what: str, value) -> np.ndarray:
    """A nested list of real numbers, each checked like check_real, as a float array."""
    arr = np.array(value, dtype=object)
    if not set(map(type, arr.flat)) <= {float, int}:  # plain JSON numbers need no per-entry check
        for entry in arr.flat:
            check_real(what, entry)
    try:
        return arr.astype(np.float64)
    except OverflowError:
        raise InvalidInputError(f"{what} is too large for a float") from None


@contextmanager
def reading(what: str):
    """Raise InvalidInputError naming `what` for a missing key, bad entry or refusal within."""
    try:
        yield
    except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
        raise InvalidInputError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc
