"""Integer partitions and the partition <-> conjugacy-class correspondence.

A partition of N ("discerptio") is a non-increasing sequence of positive
integers summing to N.  Partitions of n index the conjugacy classes of S_n:
the parts are the cycle lengths.  Class sizes come from the classical
quotient n! / (1^a1 a1! 2^a2 a2! ... n^an an!), evaluated exactly.

Both listings walk the same reverse-lexicographic order (ZS1, Zoghbi and
Stojmenovic 1998).  ``enumerate_partitions`` walks it on the list of parts,
which each ``Partition`` keeps; ``cycle_types_of`` walks it on the count
vector (alpha_1, ..., alpha_n) itself, the multiplicity form of Knuth's
TAOCP 7.2.1.4, so no class's parts are listed or counted.

``ClassOrder``, the value ``class_order`` returns, is defined in
``combinatoria._class_order`` with ``dataclasses``, which that module alone
imports; its public name is ``combinatoria.ClassOrder``.  ``class_order``
loads that module on its first call, so importing this one loads no
``dataclasses``.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator

from ._value import Value
from .errors import InvariantViolationError, of_kind, refuse_past, shown, whole
from .perm import CycleType, _alpha, _trusted_cycle_type

if TYPE_CHECKING:
    from ._class_order import ClassOrder

__all__ = [
    "Partition",
    "enumerate_partitions",
    "count_partitions",
    "two_part_count",
    "class_order",
    "cycle_types_of",
    "partition_to_cycle_type",
]


class Partition(Value):
    """Non-increasing positive parts; the empty partition has total 0.

    >>> str(Partition((3, 2, 1)))
    '3,2,1'
    """

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]) -> None:
        try:
            parts = tuple(parts)
            prev = None
            for x in parts:
                if x < 1 or (prev is not None and x > prev):
                    raise InvariantViolationError(
                        f"parts must be non-increasing positives: {shown(parts)}"
                    )
                prev = x
        except TypeError:
            # no collection, or a part that does not compare with numbers
            raise InvariantViolationError(
                f"parts must be a collection of whole numbers, got {shown(parts)}"
            ) from None
        _set_parts(self, parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)


_set_parts = Partition.parts.__set__


def _descending_parts(n: int) -> Iterator[tuple[int, ...]]:
    # ZS1 (Zoghbi & Stojmenovic, "Fast algorithms for generating integer
    # partitions", Int. J. Comput. Math. 70, 1998): reverse-lexicographic
    # order in constant amortized time.  x[:m] is the current partition and
    # h the index of its last part above 1; each step lowers x[h] by one
    # and spreads the parts of size 1 behind it in parts of that size.
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


def _descending_alphas(n: int) -> Iterator[tuple[int, ...]]:
    # ZS1's order again, stepped on the count vector (n >= 1): alpha[i - 1]
    # parts of size i, and sizes the part sizes above 1 that are present,
    # smallest last.  Each step takes one part v of the smallest such size
    # and spreads v plus the parts of size 1 in parts of size v - 1, the
    # remainder in one smaller part.
    alpha = [0] * n
    alpha[n - 1] = 1
    sizes = [n] if n > 1 else []
    yield tuple(alpha)
    while sizes:
        v = sizes[-1]
        left = alpha[v - 1] - 1
        alpha[v - 1] = left
        if not left:
            sizes.pop()
        r = v - 1
        q, rest = divmod(v + alpha[0], r)
        alpha[0] = 0
        alpha[r - 1] += q
        if r > 1:
            sizes.append(r)
        if rest:
            alpha[rest - 1] += 1
            if rest > 1:
                sizes.append(rest)
        yield tuple(alpha)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order.

    >>> [str(p) for p in enumerate_partitions(4)]
    ['4', '3,1', '2,2', '2,1,1', '1,1,1,1']
    """
    n = refuse_past("partition listing", n)
    if n < 0:
        raise InvariantViolationError("partitions are defined for n >= 0")
    return [Partition(parts) for parts in _descending_parts(n)]


def count_partitions(n: int) -> int:
    """Exact p(n): p(0) = 1, p(6) = 11, p(100) = 190569292.

    Euler's pentagonal recurrence, filled bottom-up in a table local to the
    call, so nothing outlives it.
    """
    n = refuse_past("partition count", n)
    if n < 0:
        raise InvariantViolationError("partitions are defined for n >= 0")
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


@lru_cache(maxsize=1)
def _class_order_builder():
    # imported on the first call only, which loads dataclasses: an import
    # statement in class_order itself would cost about 1.5 us on every call
    from ._class_order import _trusted_class_order

    return _trusted_class_order


@lru_cache(maxsize=1)
def _factorial_of_degree(n: int) -> int:
    # one n! at a time: a class listing asks for the same degree p(n) times
    return math.factorial(n)


def class_order(t: CycleType) -> ClassOrder:
    """Size of the class with cycle structure t.

    n! divided by the product of i^alpha_i * alpha_i!, all exact integers.
    Only the cycle lengths present in t are visited; an absent length
    (alpha_i = 0) would contribute 1, and a single i-cycle contributes i.
    n! is kept for the last degree asked, so a class listing computes it
    once.  The product is the order of the centralizer, a divisor of n!, so
    the quotient is at least 1 and the result skips ``ClassOrder``'s check.

    >>> class_order(CycleType(4, (1, 0, 1, 0))).order
    8
    """
    of_kind("a cycle type", t, CycleType)
    n = t.degree
    alpha = t.alpha
    denominator = 1
    for i in compress(range(1, n + 1), alpha):
        a = alpha[i - 1]
        denominator *= i if a == 1 else i**a * math.factorial(a)
    return _class_order_builder()(n, t, _factorial_of_degree(n) // denominator)


def partition_to_cycle_type(p: Partition) -> CycleType:
    """Read the parts as cycle lengths of a permutation of degree sum(parts)."""
    of_kind("a partition", p, Partition)
    n = p.total
    if n < 1:
        raise InvariantViolationError("the empty partition names no cycle type")
    refuse_past("permutation degree", n)
    # checked positive parts summing to n: each length lies in 1..n
    return _trusted_cycle_type(n, _alpha(n, p.parts))


def cycle_types_of(n: int) -> Iterator[CycleType]:
    """Stream one cycle type per conjugacy class of S_n; there are p(n) of them.

    Ordered like enumerate_partitions(n): the full n-cycle class first, the
    identity class last.  The counts are stepped from class to class, never
    counted off a list of parts, and only the current class is held: the
    result is a generator, read once, and ``count_partitions(n)`` is its
    length.  A bad or oversized n is refused on the call, before any class.

    >>> [t.alpha for t in cycle_types_of(4)]
    [(0, 0, 0, 1), (1, 0, 1, 0), (0, 2, 0, 0), (2, 1, 0, 0), (4, 0, 0, 0)]
    """
    n = refuse_past("partition listing", n)
    if n < 1:
        raise InvariantViolationError("S_n needs n >= 1")
    # each walked alpha is a partition of n: it weighs up to n
    return (_trusted_cycle_type(n, alpha) for alpha in _descending_alphas(n))
