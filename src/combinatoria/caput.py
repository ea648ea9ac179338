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
circle-of-neighbours count of `problems.vicinity_variations`, and its LOOSE
listing at position 1 is `problems.vicinity_classes`.

A symbol, one letter a..z, decimal text or a whole number, names a point of
the reference arrangement: `_point` reads every symbol the module takes, and
`head_contents` writes the letters back, numbers past z.
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
    GroundSetMismatchError,
    InvalidDegreeError,
    InvariantViolationError,
    collection,
    refuse_past,
    shown,
    whole,
    wholes,
)
from .perm import Permutation, _trusted_all

__all__ = [
    "HeadMode",
    "CaputSpec",
    "count_caput",
    "enumerate_caput",
    "satisfies",
    "derangements",
    "derangements_by_inclusion_exclusion",
    "is_caput_of",
]

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"  # the symbols of the points 1..26


class HeadMode(Enum):
    LOOSE = "loose"
    EXACT = "exact"
    SETWISE = "setwise"


class CaputSpec(Value):
    """A head: positions of the reference arrangement held fixed, plus a mode.

    Degenerate heads are legitimate: EXACT with |head| = n is satisfied by the
    identity alone, EXACT with |head| = n-1 by nothing at all.  A head of one
    position, ``head_size == 1``, is monadic.  The mode may come as its text,
    ``"exact"`` for EXACT; positions are read as whole numbers, so ``2.0`` is
    refused, not taken for 2.  A mapping such as ``head_contents()`` is refused
    too, since it would read as its keys alone; pass its ``keys()``.
    """

    __slots__ = ("degree", "head", "mode")
    degree: int
    head: frozenset[int]
    mode: HeadMode

    def __init__(
        self,
        degree: int,
        head: frozenset[int] = frozenset(),
        mode: HeadMode | str = HeadMode.LOOSE,
    ) -> None:
        degree = whole("the degree of a head", degree)
        if degree < 1:
            raise InvalidDegreeError("degree 0 is not admitted; degrees start at 1")
        head = frozenset(wholes("the positions of a head", head))
        bad = [i for i in head if not 1 <= i <= degree]
        if bad:
            raise InvariantViolationError(
                f"head positions {shown(sorted(bad))} outside 1..{shown(degree)}"
            )
        try:
            mode = HeadMode(mode)
        except ValueError:
            raise InvariantViolationError(
                f"a head's mode must be loose, exact or setwise, got {shown(mode)}"
            ) from None
        self._fill(degree, head, mode)

    @property
    def head_size(self) -> int:
        return len(self.head)

    @classmethod
    def fixing_symbols(
        cls, degree: int, symbols: str | Sequence[str | int], mode: HeadMode = HeadMode.LOOSE
    ) -> "CaputSpec":
        """Fix each symbol at the place it holds in the reference arrangement.

        ``CaputSpec.fixing_symbols(4, "a")`` pins a at position 1.
        """
        return cls(degree=degree, head=frozenset(map(_point, symbols)), mode=mode)

    @classmethod
    def parse_head(
        cls, degree: int, text: str, mode: HeadMode | str = HeadMode.LOOSE
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
            if _point(occupant) != pos:
                raise InvariantViolationError(
                    f"head entry {pair!r}: {occupant.strip()!r} is not the occupant "
                    f"of position {pos} in the reference arrangement"
                )
            positions.add(pos)
        return cls(degree=degree, head=frozenset(positions), mode=mode)

    def head_contents(self) -> dict[int, str]:
        """Position -> occupant map of the head, for echoing in outputs."""
        return {i: _ALPHABET[i - 1] if i <= 26 else str(i) for i in sorted(self.head)}


def derangements(m: int) -> int:
    """D(m), permutations of m points with no fixed point.

    D(0) = 1 (the empty permutation fixes nothing, vacuously), D(1) = 0,
    then D(m) = (m-1) * (D(m-1) + D(m-2)).
    """
    m = refuse_past("derangement count", m)
    if m < 0:
        raise InvariantViolationError("derangements are defined for m >= 0")
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
    m = refuse_past("inclusion-exclusion sum", m)
    if m < 0:
        raise InvariantViolationError("derangements are defined for m >= 0")
    return sum((-1) ** j * math.comb(m, j) * math.factorial(m - j) for j in range(m + 1))


def count_caput(spec: CaputSpec) -> int:
    """Exact number of permutations of S_n satisfying the head.

    LOOSE: (n-k)!.  EXACT: D(n-k).  SETWISE: k! * (n-k)!.
    """
    _of_kind("a head", spec, CaputSpec)
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


def _of_kind(what: str, value: object, kind: type) -> None:
    """Refuse by name an argument that is not a ``kind``."""
    if not isinstance(value, kind):
        raise InvariantViolationError(f"{what} must be a {kind.__name__}, got {shown(value)}")


def satisfies(spec: CaputSpec, p: Permutation) -> bool:
    """Membership test for one permutation; the head holds ints in 1..degree."""
    _of_kind("a head", spec, CaputSpec)
    _of_kind("a permutation", p, Permutation)
    if p.degree != spec.degree:
        raise GroundSetMismatchError(
            f"permutation of degree {p.degree} against a head over 1..{shown(spec.degree)}"
        )
    image = p.image
    if spec.mode is HeadMode.SETWISE:
        return {image[i - 1] for i in spec.head} == set(spec.head)
    if any(image[i - 1] != i for i in spec.head):
        return False
    if spec.mode is HeadMode.EXACT:
        return all(image[i - 1] != i for i in range(1, spec.degree + 1) if i not in spec.head)
    return True


def enumerate_caput(spec: CaputSpec) -> Iterator[Permutation]:
    """Stream the satisfying permutations in lexicographic one-line order.

    In every mode the head occupants end up at head positions, so the free
    positions draw the free values only.  The stream is a generator built
    from ``itertools.permutations`` blocks, lex-sorted by construction, and
    its memory stays O(n) plus one batch of built permutations and, for
    SETWISE, one table of at most 720 patterns and the images of one tail,
    however long it runs; EXACT also reads one table shared by every
    listing, of at most 127 keep masks:

    - LOOSE: one block, the arrangements of the free values, each placed
      among the pinned head values;
    - EXACT: the same, but the free positions before the last few draw
      their values in turn through ``_distinct``, each skipping its own
      value; the last few form a block whose arrangements with a fixed
      point ``itertools.compress`` drops in C, through a mask looked up by
      which of the block's own values are left, so the stream never stalls
      on a run of rejects;
    - SETWISE: the positions before the last few draw their values in turn
      through ``_distinct``, each from its class (head or free); the last
      few read every arrangement of what is left off one table built per
      call, the sorted patterns of the head values over the tail's head
      positions and of the free values over its free positions.
    """
    _of_kind("a head", spec, CaputSpec)
    refuse_past("head enumeration", spec.degree)
    return _trusted_all(_images(spec))


def _images(spec: CaputSpec) -> Iterator[tuple[int, ...]]:
    """The listing's one-line images in lex order, under no ceiling; the
    witnesses of problems 4 and 5 are cut short instead."""
    return itertools.chain.from_iterable(_stream(spec.degree, spec.head, spec.mode))


# The last _TAIL positions form one block, and the cut = n - _TAIL or fewer
# positions before it form the lead.  Every lead prefix extends: a SETWISE
# class has as many values as positions, and an EXACT lead position finds at
# least _TAIL + 1 free values left, one of them its own.  So a lead step
# rejects at most cut values, the ones its prefix holds.  EXACT drops the
# arrangements of its block with a fixed point through a keep mask from
# _KEEP, so its rejects are skipped in C, and a block of k >= 2 positions
# keeps at least one.
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
    place = None if order == sorted(order) else operator.itemgetter(*order)
    cut = max(len(free) - _TAIL, 0) if mode is HeadMode.EXACT else 0
    avoid = free[cut:]
    for prefix in _distinct([[v for v in free if v != pos] for pos in free[:cut]]):
        left = [v for v in free if v not in prefix]
        rests = itertools.permutations(left)
        if mode is HeadMode.EXACT:
            own = tuple([left.index(v) if v in left else -1 for v in avoid])
            rests = itertools.compress(rests, _KEEP[own])
        lead = pinned + prefix
        if lead:
            rests = map(lead.__add__, rests)
        yield rests if place is None else map(place, rests)


class _Keep(dict):
    """``own`` -> which arrangements of a tail block keep no value at home.

    ``own[j]`` is the index of tail position j's own value among the sorted
    values left for the tail, or -1 when the lead took it; flag i of the
    mask is set when the i-th of ``itertools.permutations`` of those values
    puts none of them at home.  The tail's own values are the largest free
    ones, so those still left sit at the top of the values left, in order,
    and ``own`` is fixed by which of them are left: at most 2^w masks of w!
    flags for a tail of w positions, 127 masks up to ``_TAIL``, built the
    first time each is asked for and shared by every listing.
    """

    def __missing__(self, own: tuple[int, ...]) -> bytes:
        keep = self[own] = bytes(
            all(map(operator.ne, arrangement, own))
            for arrangement in itertools.permutations(range(len(own)))
        )
        return keep


_KEEP = _Keep()


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
    if isinstance(whole, (set, frozenset)):  # its order is the hash order
        raise InvariantViolationError(f"an arrangement must not be a set, got {shown(whole)}")
    points = tuple(map(_point, collection("an arrangement", whole, "symbols")))
    if sorted(points) != list(range(1, len(points) + 1)):
        raise InvariantViolationError(
            f"arrangement {shown(whole)} is not a rearrangement of a reference alphabet"
        )
    return points


def _point(symbol: int | str) -> int:
    """The point a symbol names: stripped text, decimal or one letter a..z in
    any case, or any other value read as ``errors.whole`` reads one."""
    if not isinstance(symbol, str):
        return whole("a symbol", symbol)
    text = symbol.strip().lower()
    if text.isdecimal():
        return int(text)
    if len(text) == 1 and text in _ALPHABET:
        return _ALPHABET.index(text) + 1
    raise InvariantViolationError(f"unknown symbol {symbol!r}")


def _normalize_sub(sub: Mapping[int, str | int]) -> dict[int, int]:
    if not isinstance(sub, Mapping):
        raise InvariantViolationError(
            f"a head to test must be a mapping of positions to occupants, got {shown(sub)}"
        )
    return {whole("a head position", pos): _point(sym) for pos, sym in sub.items()}


def is_caput_of(
    sub: Mapping[int, str | int], whole: str | Sequence[int | str] | Permutation
) -> bool:
    """Position-respecting containment: is the smaller arrangement a head of the larger?

    True iff every (position, occupant) pair of the mapping ``sub`` is
    realized by ``whole``.  An empty sub is vacuously a head of anything.
    Positions are read as ``CaputSpec`` reads its own and symbols as
    ``fixing_symbols`` does, so ``True`` is 1 and ``1.0`` is refused; a
    ``CaputSpec`` is refused too, since ``satisfies`` tests a spec in its
    mode.  ``whole`` is a string, a sequence or a ``Permutation``; a mapping
    (read by its keys) and a set (read in hash order) are refused by name.
    Positions or occupants outside the larger arrangement's ground set are
    a mismatch error, not a False.
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
