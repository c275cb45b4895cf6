"""Exception types shared across the package."""


class GracError(Exception):
    """Base class for all errors raised by this package."""


class WidthMismatchError(GracError):
    """Two objects built for different input widths were combined."""


class WidthOutOfRangeError(GracError):
    """Requested input width outside the supported range."""


class NotBalancedError(GracError):
    """A predicate that requires balanced functions received an unbalanced one."""


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
