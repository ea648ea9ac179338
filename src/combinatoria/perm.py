"""Permutations of the points 1..n with their cycle structure.

Conventions, fixed once for the whole package:

- Points are 1-based: a permutation of degree n acts on {1, ..., n}.
- One-line notation: ``Permutation((1, 4, 3, 6, 5, 2))`` sends point i to
  ``image[i-1]``.  The textual form is ``[1,4,3,6,5,2]``.
- Composition is right-to-left: ``compose(p, q)`` applies q first, then p.
- Cycle notation lists every cycle, 1-cycles included, each cycle rotated so
  its smallest point comes first, cycles ordered by smallest point:
  ``(1)(3)(5)(246)``.

Validation happens at the edges only: the public constructors and parsers
(``Permutation(...)``, ``parse_one_line``, ``parse_cycles``, ``from_cycles``)
check every input, and results the package computes from already checked
permutations (products, inverses, enumerations) are trusted and built
without re-checking.  Two sources of cycle types are trusted too:
``partitions.cycle_types_of``, whose alphas are stepped from class to class
by a walk of partitions of n in count-vector form, and
``partitions.partition_to_cycle_type``, whose alpha is counted off a checked
partition.  Every trusted builder is a module-level name starting with
``_trusted``.

Points from a caller are read as whole numbers, as ``CycleType`` reads its
counts: by ``errors.wholes`` in ``Permutation``, ``Cycle`` and
``from_cycles``, by ``errors.whole`` in ``Permutation.__call__``.  Bools
read as 0 and 1; a float (NaN included), text, a mapping and a set, which
iterates in hash order, are refused by name, and so is an argument of
another kind where a ``Permutation`` is expected.  The letters a..z that
name points in a head are ``caput``'s.

The parsers check text in C-level passes (``map``, ``filter``, ``chain``)
rather than a Python loop per point, and refuse an argument that is no
``str`` by name.  ``parse_one_line`` strips each comma-split item,
U+001C..U+001F included as ``int`` would not, drops the empty ones and
reads the rest with ``int`` in one pass; the image is then checked once, by
``Permutation``.  ``parse_cycles`` reads each cycle in one ``int`` pass too,
over its comma- or space-separated points or else its run of one-digit
points.  An item ``int`` refuses ends in "non-integer point in …", unless
it is decimal text of more digits than ``int`` reads, which
``errors.decimal`` names.

The cycle readers ``cycle_decomposition``, ``cycle_type`` and
``format_cycles`` read one private walk of the image, ``_cycles``, and still
build through the validating constructors: ``Cycle`` for the first and the
last, ``CycleType`` for ``cycle_type``.  As with ``Partition`` and
``TreeCoordinate`` elsewhere, these readers are the only builders of their
classes in the benchmark's ``library`` workload, whose traced self-check
counts ``__init__`` calls and would read a trusted build as a layer never
reached.
"""
from __future__ import annotations

import operator
from itertools import chain, compress, islice, repeat
from typing import Iterable, Iterator, Sequence

from ._value import Value
from .errors import (
    DegreeMismatchError,
    InvalidDegreeError,
    InvariantViolationError,
    collection,
    decimal,
    of_kind,
    refuse_past,
    shown,
    whole,
    wholes,
)

__all__ = [
    "Permutation",
    "Cycle",
    "CycleType",
    "identity",
    "compose",
    "inverse",
    "cycle_decomposition",
    "cycle_type",
    "fixed_points",
    "from_cycles",
    "parse_one_line",
    "parse_cycles",
    "parse_permutation",
    "format_one_line",
    "format_cycles",
]


class Permutation(Value):
    """A bijection of {1, ..., n} in one-line form.

    >>> p = Permutation((1, 4, 3, 6, 5, 2))
    >>> p(2), p(6)
    (4, 2)
    >>> p.degree
    6
    """

    __slots__ = ("image",)
    image: tuple[int, ...]

    def __init__(self, image: Iterable[int]) -> None:
        image = wholes("the points of a one-line form", image)
        n = len(image)
        if n == 0:
            raise InvalidDegreeError("degree 0 is not admitted; degrees start at 1")
        if sorted(image) != list(range(1, n + 1)):
            raise InvariantViolationError(
                f"one-line form {shown(list(image))} is not a bijection of 1..{n}"
            )
        _set_image(self, image)

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, point: int) -> int:
        point = whole("a point", point)
        if not 1 <= point <= self.degree:
            raise InvariantViolationError(f"point {shown(point)} outside 1..{self.degree}")
        return self.image[point - 1]

    def __str__(self) -> str:
        return format_one_line(self)

    def __repr__(self) -> str:
        return f"Permutation({self.image!r})"


_new_object = object.__new__
_set_image = Permutation.image.__set__


def _trusted(image: tuple[int, ...]) -> Permutation:
    """A Permutation over an image already known to be a bijection of 1..n.

    Skips the checks of ``__init__``; only results computed from checked
    data may come through here.
    """
    p = _new_object(Permutation)
    _set_image(p, image)
    return p


# images per batch of _trusted_all: sizes from 64 to 4096 build within a few
# percent of each other, and a batch at degree 12 takes about 100 KB
_BATCH = 512


def _trusted_all(images: Iterable[tuple[int, ...]]) -> Iterator[Permutation]:
    """``_trusted`` over a stream of images, lazily and in order.

    Each batch of ``_BATCH`` images is built in two C-level passes, one
    making the objects and one setting their images, so no Python function
    is called per permutation.
    """
    images = iter(images)
    while batch := list(islice(images, _BATCH)):
        perms = list(map(_new_object, repeat(Permutation, len(batch))))
        any(map(_set_image, perms, batch))  # each call returns None
        yield from perms


class Cycle(Value):
    """A cycle of distinct points, stored with the smallest point first.

    A 1-cycle is a fixed point; it is kept, never dropped.
    """

    __slots__ = ("points",)
    points: tuple[int, ...]

    def __init__(self, points: tuple[int, ...]) -> None:
        pts = wholes("the points of a cycle", points)
        if not pts:
            raise InvariantViolationError("a cycle needs at least one point")
        if len(set(pts)) != len(pts):
            raise InvariantViolationError(f"cycle {shown(pts)} repeats a point")
        least = min(pts)
        if least <= 0:
            raise InvariantViolationError(f"cycle {shown(pts)} contains a non-positive point")
        if pts[0] != least:
            # canonical rotation: smallest point first
            k = pts.index(least)
            pts = pts[k:] + pts[:k]
        _set_points(self, pts)

    def __str__(self) -> str:
        if max(self.points) > 9:
            # a lone point keeps a trailing comma: "(13)" reads as 1 and 3
            lone = "," if len(self.points) == 1 else ""
            return "(" + ",".join(map(str, self.points)) + lone + ")"
        return "(" + "".join(map(str, self.points)) + ")"


class CycleType(Value):
    """Cycle-count vector (alpha_1, ..., alpha_n): alpha[i-1] i-cycles.

    The defining identity 1*alpha_1 + 2*alpha_2 + ... + n*alpha_n = n is
    enforced at construction.
    """

    __slots__ = ("degree", "alpha")
    degree: int
    alpha: tuple[int, ...]

    def __init__(self, degree: int, alpha: Iterable[int]) -> None:
        degree = whole("the degree of a cycle type", degree)
        if degree < 1:
            raise InvalidDegreeError("degree 0 is not admitted; degrees start at 1")
        alpha = wholes("the counts of a cycle type", alpha)
        if len(alpha) != degree or min(alpha) < 0:
            raise InvariantViolationError(
                f"alpha must be {shown(degree)} non-negative counts, got {shown(alpha)}"
            )
        weighted = sum(map(operator.mul, range(1, degree + 1), alpha))
        if weighted != degree:
            raise InvariantViolationError(
                f"sum of i*alpha_i is {shown(weighted)}, expected the degree {degree}"
            )
        _set_degree(self, degree)
        _set_alpha(self, alpha)

    def cycle_lengths(self) -> tuple[int, ...]:
        """Cycle lengths in non-increasing order (a partition of the degree)."""
        alpha = self.alpha
        out: list[int] = []
        for length in compress(range(self.degree, 0, -1), reversed(alpha)):
            out += [length] * alpha[length - 1]
        return tuple(out)

    def __str__(self) -> str:
        """Sparse rendering, e.g. ``α₁=3 α₃=1``."""
        alpha = self.alpha
        return " ".join([
            f"{_LABELS[i]}{alpha[i - 1]}" for i in compress(range(1, len(alpha) + 1), alpha)
        ])


_set_points = Cycle.points.__set__
_set_degree = CycleType.degree.__set__
_set_alpha = CycleType.alpha.__set__


def _trusted_cycle_type(degree: int, alpha: tuple[int, ...]) -> CycleType:
    """A CycleType over counts already known to weigh up to the degree.

    Skips the checks of ``__init__``, like ``_trusted``.
    """
    t = _new_object(CycleType)
    _set_degree(t, degree)
    _set_alpha(t, alpha)
    return t


def _alpha(n: int, lengths: Iterable[int]) -> tuple[int, ...]:
    """The cycle-count vector of cycle lengths, each already known to lie in 1..n."""
    alpha = [0] * n
    for length in lengths:
        alpha[length - 1] += 1
    return tuple(alpha)


_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


class _Labels(dict):
    """Cycle length i -> its label ``αᵢ=``, made the first time it is asked for.

    Holds at most one entry per length ever formatted, and lengths are
    bounded by the degree ceilings.
    """

    def __missing__(self, i: int) -> str:
        label = self[i] = f"α{str(i).translate(_SUBSCRIPTS)}="
        return label


_LABELS = _Labels()


def identity(n: int) -> Permutation:
    """The identity of S_n, the two-sided unit for compose().

    >>> str(identity(3))
    '[1,2,3]'
    """
    n = refuse_past("permutation degree", n)
    if n < 1:
        raise InvalidDegreeError("degree 0 is not admitted; degrees start at 1")
    return _trusted(tuple(range(1, n + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Right-to-left product: the result applies q first, then p.

    >>> str(compose(parse_cycles("(12)(3)"), parse_cycles("(13)(2)")))
    '[3,1,2]'
    """
    of_kind("a permutation", p, Permutation)
    of_kind("a permutation", q, Permutation)
    if p.degree != q.degree:
        raise DegreeMismatchError(
            f"cannot compose degree {p.degree} with degree {q.degree}"
        )
    return _trusted(tuple(p.image[x - 1] for x in q.image))


def inverse(p: Permutation) -> Permutation:
    of_kind("a permutation", p, Permutation)
    inv = [0] * p.degree
    for i, x in enumerate(p.image, start=1):
        inv[x - 1] = i
    return _trusted(tuple(inv))


def _cycles(image: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The cycles of a one-line image, each from its smallest point, ordered
    by smallest point: the one cycle walk every reader below goes through."""
    seen = [False] * (len(image) + 1)
    cycles = []
    for start in range(1, len(image) + 1):
        if seen[start]:
            continue
        pts = []
        x = start
        while not seen[x]:
            seen[x] = True
            pts.append(x)
            x = image[x - 1]
        cycles.append(tuple(pts))
    return cycles


def cycle_decomposition(p: Permutation) -> list[Cycle]:
    """Disjoint cycles of p, ordered by smallest point, 1-cycles kept.

    >>> [str(c) for c in cycle_decomposition(Permutation((1, 4, 3, 6, 5, 2)))]
    ['(1)', '(246)', '(3)', '(5)']
    """
    of_kind("a permutation", p, Permutation)
    return [Cycle(pts) for pts in _cycles(p.image)]


def cycle_type(p: Permutation) -> CycleType:
    """The vector counting i-cycles of p."""
    of_kind("a permutation", p, Permutation)
    n = p.degree
    return CycleType(n, _alpha(n, map(len, _cycles(p.image))))


def fixed_points(p: Permutation) -> frozenset[int]:
    """The points i with p(i) = i; its size equals alpha_1."""
    of_kind("a permutation", p, Permutation)
    return frozenset(i for i, x in enumerate(p.image, start=1) if x == i)


def from_cycles(cycles: Iterable[Cycle | Sequence[int]]) -> Permutation:
    """Rebuild a permutation from disjoint cycles.

    Each cycle needs at least one point, as a ``Cycle`` does.  The degree is
    the largest point mentioned, and points absent from every cycle are
    fixed; a degree past the "cycle degree" row of ``CEILINGS`` is
    refused before the image is built.
    """
    cycle_list = [
        c.points if isinstance(c, Cycle) else wholes("the points of a cycle", c)
        for c in collection("cycles", cycles, "cycles")
    ]
    if not all(cycle_list):
        raise InvariantViolationError("a cycle needs at least one point")
    mentioned = list(chain.from_iterable(cycle_list))
    if not mentioned:
        raise InvalidDegreeError("cannot infer a degree from an empty cycle list")
    if len(set(mentioned)) != len(mentioned):
        raise InvariantViolationError("cycles are not disjoint")
    n = refuse_past("cycle degree", max(mentioned))
    if n < 1:
        raise InvalidDegreeError("degree 0 is not admitted; degrees start at 1")
    if min(mentioned) < 1:
        # name the first point listed below 1, not the least
        low = next(x for x in mentioned if x < 1)
        raise InvariantViolationError(f"point {shown(low)} outside 1..{n}")
    image = list(range(1, n + 1))
    for pts in cycle_list:
        # each point goes to the next; the walk starts at the last, which goes to the first
        x = pts[-1]
        for y in pts:
            image[x - 1] = y
            x = y
    # disjoint cycles of points in 1..n, every other point fixed: a bijection
    return _trusted(tuple(image))


# -- textual round-trip formats ----------------------------------------------

def format_one_line(p: Permutation) -> str:
    """Bit-stable one-line form, e.g. ``[1,4,3,6,5,2]``."""
    of_kind("a permutation", p, Permutation)
    return "[" + ",".join(map(str, p.image)) + "]"


def format_cycles(p: Permutation) -> str:
    """Bit-stable cycle form, e.g. ``(1)(3)(5)(246)``.

    The textual convention puts short cycles first (fixed points lead), ties
    broken by smallest point: a stable sort by length of the walk, which
    already comes in order of smallest point.  cycle_decomposition itself
    stays ordered by smallest point.  Points are concatenated digit-wise up to degree 9; past
    that each cycle holding a point above 9 is comma-separated, since
    ``(246)`` would be ambiguous, and a 1-cycle of such a point keeps a
    trailing comma, ``(13,)``, so that it is not read as ``(1,3)``.  Either
    way ``parse_cycles`` reads the text back to the same permutation.
    """
    of_kind("a permutation", p, Permutation)
    return "".join([str(Cycle(pts)) for pts in sorted(_cycles(p.image), key=len)])


def parse_one_line(text: str) -> Permutation:
    """Parse ``[1,4,3,6,5,2]`` (spaces after commas tolerated)."""
    of_kind("the text of a one-line form", text, str)
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise InvariantViolationError(f"one-line form must look like [1,2,3]: {text!r}")
    # int() strips less than str.strip (not U+001C..U+001F), so strip here
    items = list(filter(None, map(str.strip, body[1:-1].split(","))))
    if not items:
        raise InvalidDegreeError("empty one-line form has no degree")
    return Permutation(_points(items, text))


def parse_cycles(text: str) -> Permutation:
    """Parse cycle form such as ``(1)(3)(5)(246)`` or ``(2,4,6)(10)``.

    Inside one pair of parentheses, points may be comma- or space-separated;
    a bare digit run like ``246`` means the single-digit points 2, 4, 6.
    The degree is the largest point mentioned, which matches the canonical
    form (every 1-cycle printed).
    """
    of_kind("the text of a cycle form", text, str)
    body = text.strip()
    if not body:
        raise InvalidDegreeError("empty cycle form has no degree")
    if not (body.startswith("(") and body.endswith(")")):
        raise InvariantViolationError(f"cycle form must look like (1)(23): {text!r}")
    chunks = body[1:-1].split(")(")
    cycles: list[tuple[int, ...]] = []
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            raise InvariantViolationError(f"empty cycle in {text!r}")
        separated = "," in chunk or " " in chunk
        cycles.append(_points(chunk.replace(",", " ").split() if separated else chunk, text))
    return from_cycles(cycles)


def _points(items: Sequence[str], text: str) -> tuple[int, ...]:
    """The points of a parser's items, read with ``int`` in one pass; an
    item of more digits than ``int`` reads is named, any other refused item
    ends in the non-integer message."""
    try:
        return tuple(map(int, items))
    except ValueError:
        for item in filter(str.isdecimal, items):
            decimal("a point", item)  # refuses the first past the digit limit
        raise InvariantViolationError(f"non-integer point in {text!r}") from None


def parse_permutation(text: str) -> Permutation:
    """Accept either textual form, chosen by the leading bracket."""
    of_kind("the text of a permutation", text, str)
    body = text.strip()
    if body.startswith("["):
        return parse_one_line(body)
    if body.startswith("("):
        return parse_cycles(body)
    raise InvariantViolationError(
        f"expected [one-line] or (cycle) notation, got {text!r}"
    )

