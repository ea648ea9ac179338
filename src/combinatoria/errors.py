"""Exception types shared across the package, and the table of size ceilings.

All of them subclass ValueError so that callers who do not care about the
distinction can catch the usual thing.
"""
import operator
from collections.abc import Mapping
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


# Each comment gives the size of the request at the ceiling itself, and its CPU s
# (and peak RSS) over 3-8 runs of one child, by os.wait4, or of a step in it, by
# process_time (Python 3.11.7, one core of a 2-core x86-64 Xeon, October 2026).
CEILINGS = MappingProxyType({
    # an image of 100,000 points, named by cycle text as short as "(1 100000)"
    "cycle degree": Ceiling(100_000, "the degree of a permutation from cycles", "parse_one_line"),
    # an image or cycle-count vector of 100,000 entries
    "permutation degree": Ceiling(100_000, "the degree of a permutation", "a smaller degree"),
    # p(120) = 1,844,349,560 partitions
    "partition listing": Ceiling(120, "the n of a partition listing", "count_partitions"),
    # a table of 100,001 exact integers: partitions count --n 100000 takes
    # 5.1-6.8 s and 29 MB RSS
    "partition count": Ceiling(100_000, "the n of a partition count", "two_part_count"),
    # 12! = 479,001,600 permutations
    "head enumeration": Ceiling(12, "the degree of a head enumeration", "count_caput"),
    # 2^20 * 21 = 22,020,096 coordinates
    "coordinate listing": Ceiling(20, "the gradus of a coordinate listing", "personae_count"),
    # (10-1)! = 362,880 representatives
    "vicinity listing": Ceiling(10, "the n of a vicinity class listing", "vicinity_variations"),
    # 1000 witnesses of 1000 points: problems solve --id 4 --n 1000 --witnesses
    # --format json takes 0.48-0.50 s and 111 MB RSS
    "witness points": Ceiling(
        1_000, "the points of one problem witness", "problems solve without witnesses"
    ),
    # 9! = 362,880 permutations: the census of S_9 takes 0.72-0.80 s
    "S_n walk": Ceiling(9, "the degree of a walk of S_n", "every closed form"),
    # S_8 and gradus 0..15: verify --max-n 8 takes 0.80-0.90 s, 46 MB RSS
    "verify sweep": Ceiling(8, "the max_n of a verification sweep", "a smaller max_n"),
    # p(57) = 614,154 partitions walked one by one: 1.2-1.6 s (n = 60 took 2.1-2.6 s)
    "partition walk": Ceiling(57, "the n of a partition walk", "count_partitions"),
    # 30,000,000 candidate pairs (a, n - a): 1.6-1.8 s
    "pair listing": Ceiling(30_000_000, "the n of a two-part pair listing", "two_part_count"),
    # 3501 terms C(m, j) * (m - j)! at m = 3500: 1.07-1.14 s (m = 4000 took 1.6-1.7 s)
    "inclusion-exclusion sum": Ceiling(
        3_500, "the m of an inclusion-exclusion derangement sum", "derangements"
    ),
    # C(6325, 2) = 19,999,650 heads, listed at 18-22 M heads/s for k = 2 and 4:
    # problems reduce --id 1 --k 2 0.91-0.99 s, and 1.00-1.02 s at C(149, 4) = 19,720,001
    "reduction heads": Ceiling(
        20_000_000, "the number of heads C(n, k) a reduction lists", "problems solve"
    ),
    # The count rows keep the largest count to about 2 CPU s, computed and
    # printed in decimal.  Each comment ends with the CPU s of the CLI request
    # at the row, in csv; every format converts the count to decimal once.
    # 50000! has 213,237 digits: 0.04-0.06 s to compute, 0.71 s to print; caput count 0.81 s
    "factorial count": Ceiling(50_000, "the m of a factorial count m!", "a smaller m"),
    # D(50000) has 213,237 digits: 0.93-1.56 s to compute, 0.69-0.75 s to print;
    # caput count --mode exact 1.6-2.0 s
    "derangement count": Ceiling(50_000, "the m of a derangement count D(m)", "a smaller m"),
    # the personae count 2^1000000 * 1000001 has 301,036 digits: 1.40-1.43 s to
    # print; genealogy personae 1.45-1.46 s
    "power-of-two count": Ceiling(1_000_000, "the n of a power-of-two count 2^n", "a smaller n"),
    # C(300000, 150000) has 90,307 digits: 1.02-1.17 s to compute, 0.12 s to print;
    # problems solve --id 1 --k 150000 1.18-1.22 s
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


def of_kind(what: str, value: object, kind: type) -> None:
    """Refuse by name an argument that is not a ``kind``."""
    if not isinstance(value, kind):
        raise InvariantViolationError(f"{what} must be a {kind.__name__}, got {shown(value)}")


def collection(what: str, values: object, kind: str) -> tuple:
    """The values as a tuple; values that are no collection are refused by
    name, and so is a mapping, since it iterates over its keys alone, and a
    set, since it iterates in hash order."""
    if not isinstance(values, (Mapping, set, frozenset)):
        try:
            return tuple(values)
        except TypeError:
            pass
    elif isinstance(values, (set, frozenset)):
        raise InvariantViolationError(f"{what} must not be a set, got {shown(values)}")
    raise InvariantViolationError(f"{what} must be a collection of {kind}, got {shown(values)}")


def wholes(what: str, values: object) -> tuple[int, ...]:
    """The values as a tuple of ints, each read as ``whole`` reads one; the
    first that is not a whole number, or values that are no collection, are
    refused by name.  Values that are all ints run no Python code per value."""
    values = collection(what, values, "whole numbers")
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        # whole raises at the first value that operator.index refused
        return tuple([whole(f"each of {what}", value) for value in values])


def decimal(what: str, text: str) -> int:
    """The number decimal text names, read with ``int`` once stripped; text
    that is not decimal digits alone, a sign or an underscore included, is
    refused quoting a few dozen characters and its length, and more digits
    than ``int`` reads are refused by their count."""
    digits = text.strip()
    size = len(digits)
    if not digits.isdecimal():
        quoted = repr(digits) if size <= 40 else f"{digits[:32]!r}… ({size} characters)"
        raise InvariantViolationError(f"{what} {quoted} is not a number")
    try:
        return int(digits)
    except ValueError:  # past the int-to-str digit limit
        raise InvariantViolationError(f"{what} has {size} digits, too many to read") from None


def refuse_past(row: str, size: object) -> int:
    """The size as an int, refused if it is not a whole number or lies past
    the row's ceiling; the ceiling's message never renders the size."""
    ceiling = CEILINGS[row]
    size = whole(ceiling.request, size)
    if size > ceiling.limit:
        raise EnumerationTooLargeError(
            f"{ceiling.request} is capped at {ceiling.limit}; {ceiling.fallback} still works"
        )
    return size
