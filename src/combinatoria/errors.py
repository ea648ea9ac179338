"""Exception types shared across the package, and the table of size ceilings.

All of them subclass ValueError so that callers who do not care about the
distinction can catch the usual thing.
"""
import operator
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

    Materialized or streamed enumerations have ceilings, and so do the
    closed-form counts: p(n), whose recurrence table grows with n, and the
    factorial, derangement, power-of-two and binomial counts, whose decimal
    text alone takes seconds to print past their rows.  The message names the
    ceiling and what still works.
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
    # an image or cycle-count vector of 100,000 entries
    "permutation degree": Ceiling(100_000, "the degree of a permutation", "a smaller degree"),
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
    # 9! = 362,880 permutations: the census of S_9 takes about 1.4 CPU s
    "S_n walk": Ceiling(9, "the degree of a walk of S_n", "every closed form"),
    # S_8 and gradus 0..15: the benchmark's verify_all(8) takes 0.64 s, 50 MB RSS
    "verify sweep": Ceiling(8, "the max_n of a verification sweep", "a smaller max_n"),
    # p(57) = 614,154 partitions walked one by one: 1.6-2.2 s (n = 60 took 3.7 s)
    "partition walk": Ceiling(57, "the n of a partition walk", "count_partitions"),
    # 30,000,000 candidate pairs (a, n - a): 1.6-1.8 s
    "pair listing": Ceiling(30_000_000, "the n of a two-part pair listing", "two_part_count"),
    # 3501 terms C(m, j) * (m - j)! at m = 3500: 1.25-1.45 s (m = 4000 took 2.3-2.5 s)
    "inclusion-exclusion sum": Ceiling(
        3_500, "the m of an inclusion-exclusion derangement sum", "derangements"
    ),
    # C(6325, 2) = 19,999,650 heads, listed at 13-15 M heads/s for k = 2..4:
    # problems reduce --id 1 --k 2 1.55 s, and 1.56 s at C(149, 4) = 19,720,001
    "reduction heads": Ceiling(
        20_000_000, "the number of heads C(n, k) a reduction lists", "problems solve"
    ),
    # The count rows keep the largest count to about 2 CPU s, computed and
    # printed in decimal (Python 3.11, one core of a 2-core x86-64 box).  Each
    # comment ends with the CPU s of the CLI request at the row, in any format:
    # every format converts the count to decimal once.
    # 50000! has 213,237 digits: 0.04 s to compute, 0.67 s to print; caput count 0.9-1.0 s
    "factorial count": Ceiling(50_000, "the m of a factorial count m!", "a smaller m"),
    # D(50000) has 213,237 digits: 0.95 s to compute, 0.69 s to print;
    # caput count --mode exact 2.4-2.7 s
    "derangement count": Ceiling(50_000, "the m of a derangement count D(m)", "a smaller m"),
    # the personae count 2^1000000 * 1000001 has 301,036 digits: 1.39 s to print;
    # genealogy personae 1.7 s
    "power-of-two count": Ceiling(1_000_000, "the n of a power-of-two count 2^n", "a smaller n"),
    # C(300000, 150000) has 90,307 digits: 1.34 s to compute, 0.14 s to print;
    # problems solve --id 1 --k 150000 1.8 s
    "binomial count": Ceiling(300_000, "the n of a binomial count C(n, k)", "a smaller n"),
})


def shown(value: object) -> str:
    """The repr of a caller's value for a message, or past the int-to-str
    digit limit, where repr raises ValueError, a description of it."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            # log10(2) = 0.30103: the digit count, without converting
            return f"<an int of about {int(value.bit_length() * 0.30103) + 1} digits>"
        return f"<a {type(value).__name__} holding an int too long to print>"


def whole(what: str, size: object) -> int:
    """The size as an int, read through ``operator.index``: ints pass, bools
    read as 0 and 1, and anything else, a float included, is refused by name."""
    try:
        return operator.index(size)
    except TypeError:
        raise InvariantViolationError(f"{what} must be a whole number, got {shown(size)}") from None


def refuse_past(row: str, size: int) -> None:
    """Refuse a size that is not a whole number, or past the row's ceiling;
    the ceiling's message never renders the size."""
    ceiling = CEILINGS[row]
    if whole(ceiling.request, size) > ceiling.limit:
        raise EnumerationTooLargeError(
            f"{ceiling.request} is capped at {ceiling.limit}; {ceiling.fallback} still works"
        )
