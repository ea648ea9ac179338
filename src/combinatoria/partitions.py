"""Integer partitions and the partition <-> conjugacy-class correspondence.

A partition of N ("discerptio") is a non-increasing sequence of positive
integers summing to N.  Partitions of n index the conjugacy classes of S_n:
the parts are the cycle lengths.  Class sizes come from the classical
quotient n! / (1^a1 a1! 2^a2 a2! ... n^an an!), evaluated exactly.

``ClassOrder``, the value ``class_order`` returns, is defined in
``combinatoria._class_order`` with ``dataclasses``, which that module alone
imports.  ``partitions.ClassOrder`` resolves to it on first use (a module
``__getattr__``), so importing this module loads no ``dataclasses``, and
pickles that name ``combinatoria.partitions.ClassOrder`` still load.
"""
from __future__ import annotations

import math
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator

from ._value import Value
from .errors import CEILINGS, InvariantViolationError, refuse_past, shown, whole
from .perm import CycleType, _alpha, _trusted_cycle_type

if TYPE_CHECKING:
    from ._class_order import ClassOrder

__all__ = [
    "Partition",
    "ClassOrder",
    "enumerate_partitions",
    "count_partitions",
    "two_part_count",
    "class_order",
    "cycle_types_of",
    "partition_to_cycle_type",
    "cycle_type_to_partition",
    "DEFAULT_ENUMERATION_CEILING",
    "COUNTING_CEILING",
]

DEFAULT_ENUMERATION_CEILING = CEILINGS["partition listing"].limit
COUNTING_CEILING = CEILINGS["partition count"].limit


class Partition(Value):
    """Non-increasing positive parts; the empty partition has total 0.

    >>> str(Partition((3, 2, 1)))
    '3,2,1'
    """

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(parts)
        prev = None
        for x in parts:
            if x < 1 or (prev is not None and x > prev):
                raise InvariantViolationError(
                    f"parts must be non-increasing positives: {shown(parts)}"
                )
            prev = x
        _set_parts(self, parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)


_set_parts = Partition.parts.__set__


def _descending_parts(n: int) -> Iterator[tuple[int, ...]]:
    # ZS1 (Zoghbi & Stojmenovic, "Fast algorithms for generating integer
    # partitions", Int. J. Comput. Math. 70, 1998): reverse-lexicographic
    # order in constant amortized time.  x[:m] is the current partition and
    # h the index of its last part above 1; each step lowers x[h] by one
    # and spreads the parts of size 1 behind it in parts of that size.
    refuse_past("partition listing", n)
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m = 1
    h = 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order.

    >>> [str(p) for p in enumerate_partitions(4)]
    ['4', '3,1', '2,2', '2,1,1', '1,1,1,1']
    """
    if n < 0:
        raise InvariantViolationError("partitions are defined for n >= 0")
    return [Partition(parts) for parts in _descending_parts(n)]


def count_partitions(n: int) -> int:
    """Exact p(n): p(0) = 1, p(6) = 11, p(100) = 190569292.

    Euler's pentagonal recurrence, filled bottom-up in a table local to the
    call, so nothing outlives it.
    """
    if n < 0:
        raise InvariantViolationError("partitions are defined for n >= 0")
    refuse_past("partition count", n)
    table = [1]
    for m in range(1, n + 1):
        acc = 0
        k = 1
        while True:
            g1 = m - k * (3 * k - 1) // 2  # pentagonal number k(3k-1)/2
            if g1 < 0:
                break
            term = table[g1]
            g2 = g1 - k  # second pentagonal number k(3k+1)/2
            if g2 >= 0:
                term += table[g2]
            acc += term if k % 2 else -term
            k += 1
        table.append(acc)
    return table[n]


def two_part_count(n: int) -> int:
    """Partitions of n into exactly two parts: n/2 if even, (n-1)/2 if odd.

    For n < 2 there is no two-part partition; the count is 0, not an error.
    """
    n = whole("the n of a two-part count", n)
    if n < 2:
        return 0
    return n // 2


def __getattr__(name: str):
    if name == "ClassOrder":
        from ._class_order import ClassOrder

        return ClassOrder
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _first_class_order(degree: int, cycle_type: CycleType, order: int) -> ClassOrder:
    """Bind the trusted builder in place of this function, then build through it.

    ``class_order`` calls whatever ``_new_class_order`` names, so it runs an
    import statement on its first call only: one costs about 1.5 us on
    CPython 3.11, nearly as much as a whole call for a class of S_6.
    """
    global _new_class_order
    from ._class_order import _trusted_class_order as _new_class_order

    return _new_class_order(degree, cycle_type, order)


_new_class_order = _first_class_order


def class_order(t: CycleType) -> ClassOrder:
    """Size of the class with cycle structure t.

    n! divided by the product of i^alpha_i * alpha_i!, all exact integers.
    Only the cycle lengths present in t are visited; an absent length
    (alpha_i = 0) would contribute 1.  The product is the order of the
    centralizer, a divisor of n!, so the quotient is at least 1 and the
    result skips ``ClassOrder``'s check.

    >>> class_order(CycleType(4, (1, 0, 1, 0))).order
    8
    """
    n = t.degree
    alpha = t.alpha
    denominator = 1
    for i in compress(range(1, n + 1), alpha):
        a = alpha[i - 1]
        denominator *= i**a * math.factorial(a)
    return _new_class_order(n, t, math.factorial(n) // denominator)


def partition_to_cycle_type(p: Partition) -> CycleType:
    """Read the parts as cycle lengths of a permutation of degree sum(parts)."""
    n = p.total
    if n < 1:
        raise InvariantViolationError("the empty partition names no cycle type")
    refuse_past("permutation degree", n)
    # checked positive parts summing to n: each length lies in 1..n
    return _trusted_cycle_type(n, _alpha(n, p.parts))


def cycle_type_to_partition(t: CycleType) -> Partition:
    return Partition(t.cycle_lengths())


def cycle_types_of(n: int) -> list[CycleType]:
    """One cycle type per conjugacy class of S_n; there are p(n) of them.

    Ordered like enumerate_partitions(n): the full n-cycle class first, the
    identity class last.
    """
    if n < 1:
        raise InvariantViolationError("S_n needs n >= 1")
    # ZS1 yields partitions of n, so every alpha weighs up to n
    return [_trusted_cycle_type(n, _alpha(n, parts)) for parts in _descending_parts(n)]
