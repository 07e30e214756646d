"""Exception types shared across the package."""


class UlamError(Exception):
    """Base class for all errors raised by this package."""


class EmptyConfig(UlamError):
    pass


class ZeroVector(UlamError):
    pass


class NegativeCoordinate(UlamError):
    pass


class DuplicateVector(UlamError):
    pass


class DimensionMismatch(UlamError):
    pass


class BoundTooSmall(UlamError):
    """The requested bound excludes one of the initial vectors."""


class GridTooLarge(UlamError):
    """An array that a request needs takes more bytes than the limit."""


class InvalidInitials(UlamError):
    pass


class TooShort(UlamError):
    pass


class MismatchedArity(UlamError):
    pass


class NonPositiveDirection(UlamError):
    """A vector violates the nonnegativity assumptions of the embedding."""


class IndependenceViolated(UlamError):
    """A declared independence of symbols was contradicted exactly."""


class DegenerateSpan(UlamError):
    pass


class BadAlphabet(UlamError):
    pass


class RangeExceedsBound(UlamError):
    pass


class UnknownOracle(UlamError):
    pass


class BadParameters(UlamError):
    pass


class RegionExceedsBound(UlamError):
    pass


class InconclusiveBound(UlamError):
    """The generation bound is too small to decide finiteness."""
