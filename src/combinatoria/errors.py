"""Exception types shared across the package, and the table of size ceilings.

All of them subclass ValueError so that callers who do not care about the
distinction can catch the usual thing.
"""
from types import MappingProxyType
from typing import NamedTuple


class CombinatoriaError(ValueError):
    """Base class for every error raised by this package."""


class InvalidDegreeError(CombinatoriaError):
    """A degree outside the supported range (degrees start at 1)."""


class DegreeMismatchError(CombinatoriaError):
    """Two operands live in symmetric groups of different degrees."""


class InvariantViolationError(CombinatoriaError):
    """A value fails its structural invariant (bad bijection, bad cycle type...)."""


class EnumerationTooLargeError(CombinatoriaError):
    """A request was refused because it exceeds a row of ``CEILINGS``.

    Materialized or streamed enumerations have ceilings; closed-form counts
    do not.  The one count with a ceiling is p(n), whose recurrence table
    grows with n.  The message names the ceiling and what still works.
    """


class GroundSetMismatchError(CombinatoriaError):
    """Two arrangements that should share a ground set do not."""


class Ceiling(NamedTuple):
    limit: int
    request: str  # what the limit caps
    fallback: str  # what still works past it


# Each comment gives the size of the request at the ceiling itself.
CEILINGS = MappingProxyType({
    # an image of 100,000 points, named by cycle text as short as "(1 100000)"
    "cycle degree": Ceiling(100_000, "the degree of a permutation from cycles", "parse_one_line"),
    # p(120) = 1,844,349,560 partitions
    "partition listing": Ceiling(120, "the n of a partition listing", "count_partitions"),
    # a table of 100,001 exact integers: p(100000) took 10.5 CPU s and 29 MB RSS
    "partition count": Ceiling(100_000, "the n of a partition count", "two_part_count"),
    # 12! = 479,001,600 permutations
    "head enumeration": Ceiling(12, "the degree of a head enumeration", "count_caput"),
    # 2^20 * 21 = 22,020,096 coordinates
    "coordinate listing": Ceiling(20, "the gradus of a coordinate listing", "personae_count"),
    # (10-1)! = 362,880 representatives
    "vicinity listing": Ceiling(10, "the n of a vicinity class listing", "vicinity_variations"),
    # 9! = 362,880 permutations: the census of S_9 takes about 2.4 CPU s
    "S_n walk": Ceiling(9, "the degree of a walk of S_n", "every closed form"),
    # S_8 and gradus 0..15: the benchmark's verify_all(8) takes 0.72 s, 49 MB RSS
    "verify sweep": Ceiling(8, "the max_n of a verification sweep", "a smaller max_n"),
})


def refuse_past(row: str, size: int) -> None:
    """Refuse a size past the row's ceiling; the message never renders the size."""
    ceiling = CEILINGS[row]
    if size > ceiling.limit:
        raise EnumerationTooLargeError(
            f"{ceiling.request} is capped at {ceiling.limit}; {ceiling.fallback} still works"
        )
