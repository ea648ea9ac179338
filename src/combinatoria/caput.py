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

import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Sequence

from .errors import (
    EnumerationTooLargeError,
    GroundSetMismatchError,
    InvalidDegreeError,
    InvariantViolationError,
)
from .perm import Permutation, point_to_symbol, symbol_to_point

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

# 12! streams fine; past that only the closed-form counts are offered.
DEFAULT_ENUMERATION_CEILING = 12


class HeadMode(Enum):
    LOOSE = "loose"
    EXACT = "exact"
    SETWISE = "setwise"


@dataclass(frozen=True)
class CaputSpec:
    """A head: positions of the reference arrangement held fixed, plus a mode.

    Degenerate heads are legitimate: EXACT with |head| = n is satisfied by the
    identity alone, EXACT with |head| = n-1 by nothing at all.
    """

    degree: int
    head: frozenset[int] = field(default_factory=frozenset)
    mode: HeadMode = HeadMode.LOOSE

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise InvalidDegreeError("degree 0 is not admitted; degrees start at 1")
        object.__setattr__(self, "head", frozenset(self.head))
        bad = [i for i in self.head if not 1 <= i <= self.degree]
        if bad:
            raise InvariantViolationError(
                f"head positions {sorted(bad)} outside 1..{self.degree}"
            )

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


# D(0..) memoized bottom-up.  The table only grows, and the lock keeps
# concurrent fills consistent.
_dm_table: list[int] = [1, 0]
_dm_lock = threading.Lock()


def derangements(m: int) -> int:
    """D(m), permutations of m points with no fixed point.

    D(0) = 1 (the empty permutation fixes nothing, vacuously), D(1) = 0,
    then D(m) = (m-1) * (D(m-1) + D(m-2)).
    """
    if m < 0:
        raise InvariantViolationError("derangements are defined for m >= 0")
    with _dm_lock:
        while len(_dm_table) <= m:
            k = len(_dm_table)
            _dm_table.append((k - 1) * (_dm_table[k - 1] + _dm_table[k - 2]))
        return _dm_table[m]


def derangements_by_inclusion_exclusion(m: int) -> int:
    """Same D(m) by the alternating sum over forced fixed points.

    Kept as a second, formula-independent route; the two must agree.
    """
    if m < 0:
        raise InvariantViolationError("derangements are defined for m >= 0")
    return sum((-1) ** j * math.comb(m, j) * math.factorial(m - j) for j in range(m + 1))


def count_caput(spec: CaputSpec) -> int:
    """Exact number of permutations of S_n satisfying the head.

    LOOSE: (n-k)!.  EXACT: D(n-k).  SETWISE: k! * (n-k)!.
    """
    free = spec.degree - spec.head_size
    if spec.mode is HeadMode.LOOSE:
        return math.factorial(free)
    if spec.mode is HeadMode.EXACT:
        return derangements(free)
    return math.factorial(spec.head_size) * math.factorial(free)


def satisfies(spec: CaputSpec, p: Permutation) -> bool:
    """Membership test for a single permutation against the head."""
    if p.degree != spec.degree:
        raise GroundSetMismatchError(
            f"permutation of degree {p.degree} against a head over 1..{spec.degree}"
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

    Position by position, candidate values are tried in increasing order, so
    the output is lex-sorted by construction and memory stays O(n) no matter
    how long the stream is.
    """
    if spec.degree > DEFAULT_ENUMERATION_CEILING:
        raise EnumerationTooLargeError(
            f"enumerating S_{spec.degree} exceeds the ceiling "
            f"{DEFAULT_ENUMERATION_CEILING}; count_caput still works at any degree"
        )
    n = spec.degree
    head = spec.head
    mode = spec.mode
    used = [False] * (n + 1)
    image = [0] * n

    def candidates(pos: int) -> Iterator[int]:
        if pos in head:
            if mode is HeadMode.SETWISE:
                for v in sorted(head):
                    if not used[v]:
                        yield v
            elif not used[pos]:
                yield pos
            return
        # In every mode the head occupants end up at head positions, so the
        # complement positions draw complement values only.
        for v in range(1, n + 1):
            if used[v] or v in head:
                continue
            if mode is HeadMode.EXACT and v == pos:
                continue
            yield v

    def extend(pos: int) -> Iterator[Permutation]:
        if pos > n:
            yield Permutation(tuple(image))
            return
        for v in candidates(pos):
            used[v] = True
            image[pos - 1] = v
            yield from extend(pos + 1)
            used[v] = False

    return extend(1)


def _normalize_arrangement(whole: str | Sequence[int | str] | Permutation) -> tuple[int, ...]:
    if isinstance(whole, Permutation):
        return whole.image
    items = list(whole)
    points = tuple(symbol_to_point(str(s)) for s in items)
    if sorted(points) != list(range(1, len(points) + 1)):
        raise InvariantViolationError(
            f"arrangement {whole!r} is not a rearrangement of a reference alphabet"
        )
    return points


def _normalize_sub(sub: "CaputSpec | Mapping[int, str | int] | Sequence[tuple[int, str | int]]") -> dict[int, int]:
    if isinstance(sub, CaputSpec):
        return {i: i for i in sub.head}
    if isinstance(sub, Mapping):
        pairs = sub.items()
    else:
        pairs = sub
    return {int(pos): symbol_to_point(str(sym)) for pos, sym in pairs}


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
            raise GroundSetMismatchError(f"position {pos} outside 1..{n}")
        if not 1 <= point <= n:
            raise GroundSetMismatchError(
                f"occupant {point} is not drawn from the arrangement's symbols"
            )
    return all(arrangement[pos - 1] == point for pos, point in wanted.items())
