"""Fixed-head ("caput") counting and enumeration.

A head is a set of positions of the reference arrangement whose occupants are
pinned while the rest varies.  Three regimes are distinguished, because the
historical notion genuinely covers all three:

- LOOSE: the head positions keep their occupants; everything else is free.
  Count (n-k)!.
- EXACT: the head positions keep their occupants and *only* they do; no other
  point may stay put.  Count D(n-k), a derangement number.
- SETWISE: the head positions are mapped among themselves, not necessarily
  pointwise (the pointwise case is the special case).  Count k! * (n-k)!.

Heads over repeated/homogeneous symbols (multiset variations) are out of
scope: no closed form is implemented for them, and none is invented here.
A head of size one is called monadic; its LOOSE count (n-1)! is exactly the
circle-of-neighbours count of `problems.vicinity_variations`.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from ._value import Value
from .errors import (
    CEILINGS,
    GroundSetMismatchError,
    InvalidDegreeError,
    InvariantViolationError,
    refuse_past,
    shown,
)
from .perm import Permutation, _trusted_all, point_to_symbol, symbol_to_point

__all__ = [
    "HeadMode",
    "CaputSpec",
    "count_caput",
    "enumerate_caput",
    "satisfies",
    "derangements",
    "derangements_by_inclusion_exclusion",
    "is_caput_of",
    "DEFAULT_ENUMERATION_CEILING",
]

DEFAULT_ENUMERATION_CEILING = CEILINGS["head enumeration"].limit


class HeadMode(Enum):
    LOOSE = "loose"
    EXACT = "exact"
    SETWISE = "setwise"


class CaputSpec(Value):
    """A head: positions of the reference arrangement held fixed, plus a mode.

    Degenerate heads are legitimate: EXACT with |head| = n is satisfied by the
    identity alone, EXACT with |head| = n-1 by nothing at all.
    """

    __slots__ = ("degree", "head", "mode")
    degree: int
    head: frozenset[int]
    mode: HeadMode

    def __init__(
        self, degree: int, head: frozenset[int] = frozenset(), mode: HeadMode = HeadMode.LOOSE
    ) -> None:
        if degree < 1:
            raise InvalidDegreeError("degree 0 is not admitted; degrees start at 1")
        head = frozenset(head)
        bad = [i for i in head if not 1 <= i <= degree]
        if bad:
            raise InvariantViolationError(
                f"head positions {shown(sorted(bad))} outside 1..{shown(degree)}"
            )
        self._fill(degree, head, mode)

    @property
    def head_size(self) -> int:
        return len(self.head)

    @property
    def is_monadic(self) -> bool:
        return len(self.head) == 1

    @classmethod
    def fixing_symbols(
        cls, degree: int, symbols: str | Sequence[str | int], mode: HeadMode = HeadMode.LOOSE
    ) -> "CaputSpec":
        """Fix each symbol at the place it holds in the reference arrangement.

        ``CaputSpec.fixing_symbols(4, "a")`` pins a at position 1.
        """
        positions = frozenset(symbol_to_point(str(s)) for s in symbols)
        return cls(degree=degree, head=positions, mode=mode)

    @classmethod
    def parse_head(
        cls, degree: int, text: str, mode: HeadMode = HeadMode.LOOSE
    ) -> "CaputSpec":
        """Parse the CLI syntax ``1=a,3=c`` (empty string: empty head).

        Each pair names a position and its required occupant.  The occupant
        must be the one the reference arrangement already has there (a head
        pins parts in their own places; ``1=b`` would displace b, which is a
        different kind of constraint and is rejected).
        """
        positions = set()
        for pair in filter(None, (s.strip() for s in text.split(","))):
            if "=" not in pair:
                raise InvariantViolationError(
                    f"head entry {pair!r} must look like position=occupant"
                )
            pos_text, occupant = pair.split("=", 1)
            try:
                pos = int(pos_text)
            except ValueError:
                raise InvariantViolationError(
                    f"head position {pos_text!r} is not a number"
                ) from None
            point = symbol_to_point(occupant)
            if point != pos:
                raise InvariantViolationError(
                    f"head entry {pair!r}: {occupant.strip()!r} is not the occupant "
                    f"of position {pos} in the reference arrangement"
                )
            positions.add(pos)
        return cls(degree=degree, head=frozenset(positions), mode=mode)

    def head_contents(self) -> dict[int, str]:
        """Position -> occupant map of the head, for echoing in outputs."""
        return {i: point_to_symbol(i) if i <= 26 else str(i) for i in sorted(self.head)}


def derangements(m: int) -> int:
    """D(m), permutations of m points with no fixed point.

    D(0) = 1 (the empty permutation fixes nothing, vacuously), D(1) = 0,
    then D(m) = (m-1) * (D(m-1) + D(m-2)).
    """
    if m < 0:
        raise InvariantViolationError("derangements are defined for m >= 0")
    refuse_past("derangement count", m)
    # Only the last two values are kept: a table of every D(k) would grow
    # quadratically in memory with m.  The k = 1 step multiplies the unused
    # D(-1) by 0.
    before, current = 0, 1
    for k in range(1, m + 1):
        before, current = current, (k - 1) * (current + before)
    return current


def derangements_by_inclusion_exclusion(m: int) -> int:
    """Same D(m) by the alternating sum over forced fixed points.

    Kept as a second, formula-independent route; the two must agree.  The
    sum has m + 1 terms of up to m! each, so it is refused past its own row
    of ``CEILINGS``, far below the derangement row.
    """
    if m < 0:
        raise InvariantViolationError("derangements are defined for m >= 0")
    refuse_past("inclusion-exclusion sum", m)
    return sum((-1) ** j * math.comb(m, j) * math.factorial(m - j) for j in range(m + 1))


def count_caput(spec: CaputSpec) -> int:
    """Exact number of permutations of S_n satisfying the head.

    LOOSE: (n-k)!.  EXACT: D(n-k).  SETWISE: k! * (n-k)!.
    """
    free = spec.degree - spec.head_size
    if spec.mode is HeadMode.LOOSE:
        return _factorial(free)
    if spec.mode is HeadMode.EXACT:
        return derangements(free)
    return _factorial(spec.head_size) * _factorial(free)


def _factorial(m: int) -> int:
    """m!, refused past the factorial row of ``CEILINGS``."""
    refuse_past("factorial count", m)
    return math.factorial(m)


def satisfies(spec: CaputSpec, p: Permutation) -> bool:
    """Membership test for a single permutation against the head."""
    if p.degree != spec.degree:
        raise GroundSetMismatchError(
            f"permutation of degree {p.degree} against a head over 1..{shown(spec.degree)}"
        )
    if spec.mode is HeadMode.SETWISE:
        return {p(i) for i in spec.head} == set(spec.head)
    if any(p(i) != i for i in spec.head):
        return False
    if spec.mode is HeadMode.EXACT:
        return all(p(i) != i for i in range(1, spec.degree + 1) if i not in spec.head)
    return True


def enumerate_caput(spec: CaputSpec) -> Iterator[Permutation]:
    """Stream the satisfying permutations in lexicographic one-line order.

    In every mode the head occupants end up at head positions, so the free
    positions draw the free values only.  The stream is a generator built
    from ``itertools.permutations`` blocks, lex-sorted by construction, and
    its memory stays O(n) plus one batch of built permutations and, for
    SETWISE, one table of at most 720 patterns and the images of one tail,
    however long it runs:

    - LOOSE: one block, the arrangements of the free values, each placed
      among the pinned head values;
    - EXACT: the same, but the free positions before the last few draw
      their values in turn through ``_distinct``, each skipping its own
      value; the last few form a block filtered for fixed points, so the
      stream never stalls on a run of rejects;
    - SETWISE: the positions before the last few draw their values in turn
      through ``_distinct``, each from its class (head or free); the last
      few read every arrangement of what is left off one table built per
      call, the sorted patterns of the head values over the tail's head
      positions and of the free values over its free positions.
    """
    refuse_past("head enumeration", spec.degree)
    return _trusted_all(itertools.chain.from_iterable(_stream(spec.degree, spec.head, spec.mode)))


# The last _TAIL positions form one block, and the cut = n - _TAIL or fewer
# positions before it form the lead.  Every lead prefix extends: a SETWISE
# class has as many values as positions, and an EXACT lead position finds at
# least _TAIL + 1 free values left, one of them its own.  So a lead step
# rejects at most cut values, the ones its prefix holds.  EXACT drops the
# arrangements of its block with a fixed point; a block of k >= 2 positions
# keeps at least one, so fewer than 2 * k! rejects come between two items.
# SETWISE reads its block off a table of at most _TAIL! patterns; over the
# benchmark's SETWISE heads a tail of 6 lists faster than one of 5.
_TAIL = 6


def _stream(n: int, head: frozenset[int], mode: HeadMode) -> Iterator[Iterable[tuple[int, ...]]]:
    """The images of the listing in lex order, one block per lead prefix."""
    if mode is HeadMode.SETWISE and 0 < len(head) < n:
        pools = (sorted(head), [i for i in range(1, n + 1) if i not in head])
        in_free = [i not in head for i in range(1, n + 1)]  # picks a pool
        cut = max(n - _TAIL, 0)
        getters = _tail_getters(cut, in_free[cut:])
        for prefix in _distinct([pools[c] for c in in_free[:cut]]):
            values = prefix + tuple(v for pool in pools for v in pool if v not in prefix)
            yield [get(values) for get in getters]
        return
    if mode is HeadMode.SETWISE:
        head = frozenset()  # an empty or a full head admits all of S_n
    free = tuple(i for i in range(1, n + 1) if i not in head)
    pinned = tuple(sorted(head))
    # the value of position i sits at order[i - 1] in pinned + free values
    order = sorted(range(n), key=(pinned + free).__getitem__)
    place = tuple if order == sorted(order) else operator.itemgetter(*order)
    cut = max(len(free) - _TAIL, 0) if mode is HeadMode.EXACT else 0
    avoid = free[cut:]
    for prefix in _distinct([[v for v in free if v != pos] for pos in free[:cut]]):
        rests = itertools.permutations([v for v in free if v not in prefix])
        if mode is HeadMode.EXACT:
            rests = itertools.filterfalse(lambda c: any(map(operator.eq, c, avoid)), rests)
        yield map(place, map((pinned + prefix).__add__, rests))


def _distinct(pools: Sequence[Sequence[int]]) -> Iterable[tuple[int, ...]]:
    """Every tuple that takes its d-th value from pools[d], no value twice.

    One generator per pool extends the prefixes of the one before it; each
    pool in lex order gives the tuples in lex order.  A function binds each
    pool, which a generator expression in a loop would read late.
    """
    return functools.reduce(
        lambda prefixes, pool: (p + (v,) for p in prefixes for v in pool if v not in p),
        pools,
        [()],
    )


def _tail_getters(cut: int, in_free: list[bool]) -> list[operator.itemgetter]:
    """One getter per arrangement of the tail, in the lex order of its images.

    A getter maps ``prefix + head values left + free values left``, each part
    sorted, to a whole image: it keeps the ``cut`` prefix values and puts
    the head values left at the tail's head positions and the free values
    left at its free ones.  A position draws from one class only, and within
    a class a value rises with its index, so the patterns sort as the images
    they build.
    """
    n = cut + len(in_free)
    heads = cut + in_free.count(False)
    # a + b fills the tail's head positions, then its free ones, each in
    # turn; tail position j takes item order[j] of it
    by_class = sorted(range(len(in_free)), key=in_free.__getitem__)
    order = sorted(range(len(in_free)), key=by_class.__getitem__)
    place = operator.itemgetter(*order)
    lead = tuple(range(cut))
    patterns = sorted(
        lead + place(a + b)
        for a, b in itertools.product(
            itertools.permutations(range(cut, heads)), itertools.permutations(range(heads, n))
        )
    )
    return [operator.itemgetter(*pattern) for pattern in patterns]


def _normalize_arrangement(whole: str | Sequence[int | str] | Permutation) -> tuple[int, ...]:
    if isinstance(whole, Permutation):
        return whole.image
    items = list(whole)
    points = tuple(map(_point, items))
    if sorted(points) != list(range(1, len(points) + 1)):
        raise InvariantViolationError(
            f"arrangement {shown(whole)} is not a rearrangement of a reference alphabet"
        )
    return points


def _point(symbol: int | str) -> int:
    """``symbol_to_point`` of the symbol's text; a non-negative int is its own
    point, even one whose text would pass the int-to-str digit limit."""
    if type(symbol) is int and symbol >= 0:
        return symbol
    return symbol_to_point(str(symbol))


def _normalize_sub(sub: "CaputSpec | Mapping[int, str | int] | Sequence[tuple[int, str | int]]") -> dict[int, int]:
    if isinstance(sub, CaputSpec):
        return {i: i for i in sub.head}
    if isinstance(sub, Mapping):
        pairs = sub.items()
    else:
        pairs = sub
    return {_position(pos): _point(sym) for pos, sym in pairs}


def _position(pos: int | str) -> int:
    """A position of ``sub``: an int, its decimal text or a whole float like 1.0."""
    try:
        point = int(pos)
    except (TypeError, ValueError, OverflowError):
        point = None
    if point is None or (point != pos and not isinstance(pos, str)):
        raise InvariantViolationError(f"head position {shown(pos)} is not a whole number")
    return point


def is_caput_of(
    sub: "CaputSpec | Mapping[int, str | int] | Sequence[tuple[int, str | int]]",
    whole: str | Sequence[int | str] | Permutation,
) -> bool:
    """Position-respecting containment: is the smaller arrangement a head of the larger?

    True iff every (position, occupant) pair of ``sub`` is realized by
    ``whole``.  An empty sub is vacuously a head of anything.  Positions or
    occupants outside the larger arrangement's ground set are a mismatch
    error, not a False.
    """
    arrangement = _normalize_arrangement(whole)
    n = len(arrangement)
    wanted = _normalize_sub(sub)
    for pos, point in wanted.items():
        if not 1 <= pos <= n:
            raise GroundSetMismatchError(f"position {shown(pos)} outside 1..{n}")
        if not 1 <= point <= n:
            raise GroundSetMismatchError(
                f"occupant {shown(point)} is not drawn from the arrangement's symbols"
            )
    return all(arrangement[pos - 1] == point for pos, point in wanted.items())
