"""Exception types shared across the package.

All of them subclass ValueError so that callers who do not care about the
distinction can catch the usual thing.
"""


class CombinatoriaError(ValueError):
    """Base class for every error raised by this package."""


class InvalidDegreeError(CombinatoriaError):
    """A degree outside the supported range (degrees start at 1)."""


class DegreeMismatchError(CombinatoriaError):
    """Two operands live in symmetric groups of different degrees."""


class InvariantViolationError(CombinatoriaError):
    """A value fails its structural invariant (bad bijection, bad cycle type...)."""


class EnumerationTooLargeError(CombinatoriaError):
    """A request was refused because it exceeds a named ceiling.

    Materialized or streamed enumerations have ceilings; closed-form counts
    do not.  The one count with a ceiling is p(n), whose recurrence table
    grows with n.  The message names the ceiling.
    """


class GroundSetMismatchError(CombinatoriaError):
    """Two arrangements that should share a ground set do not."""
