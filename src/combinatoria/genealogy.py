"""Person counts and coordinates in the consanguinity tree.

At degree n (the *gradus*) the tree carries N = n + 1 kinship ranks
(*cognationes*) and 2^n * N persons.  Each tree point is located by an
ordered pair (antecedens, sequens); (a, b) and (b, a) are different points.

The classical source states the count but not which pairs occur.  The layout
used here is a reconstruction, version-tagged "reconstructed-v1" in every
output: antecedens enumerates the 2^n ancestral paths (0 .. 2^n - 1),
sequens the n + 1 kinship ranks (0 .. n).  That realizes exactly 2^n * (n+1)
distinct ordered pairs.

The count and the listing each compute the rank count n + 1 themselves, so
the oracle, which compares the two, sees a wrong rank count on either route.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from ._value import Value
from .errors import InvariantViolationError, refuse_past, shown

__all__ = [
    "TreeCoordinate",
    "personae_count",
    "coordinates",
    "LAYOUT_VERSION",
]

LAYOUT_VERSION = "reconstructed-v1"


class TreeCoordinate(Value):
    """An ordered pair locating one person; order matters."""

    __slots__ = ("antecedens", "sequens")
    antecedens: int
    sequens: int

    def __init__(self, antecedens: int, sequens: int) -> None:
        try:
            if antecedens < 0 or sequens < 0:
                raise InvariantViolationError("coordinates are non-negative")
        except TypeError:
            raise InvariantViolationError(
                f"coordinates must be whole numbers, got antecedens {shown(antecedens)}"
                f" and sequens {shown(sequens)}"
            ) from None
        _set_antecedens(self, antecedens)
        _set_sequens(self, sequens)

    def swapped(self) -> "TreeCoordinate":
        return TreeCoordinate(self.sequens, self.antecedens)


_set_antecedens = TreeCoordinate.antecedens.__set__
_set_sequens = TreeCoordinate.sequens.__set__


def personae_count(gradus: int) -> int:
    """Persons at the given degree: 2^n * (n + 1), exactly."""
    gradus = refuse_past("power-of-two count", gradus, 0)
    return 2**gradus * (gradus + 1)


class _Layout:
    # the listing's pairs with their count as a length, so that list() of it
    # allocates once, at its final size; the length is only a size hint, the
    # list holds exactly what the iterator yields
    __slots__ = ("paths", "ranks")

    def __init__(self, gradus: int) -> None:
        self.paths, self.ranks = range(2**gradus), range(gradus + 1)

    def __len__(self) -> int:
        return len(self.paths) * len(self.ranks)

    def __iter__(self) -> Iterator[TreeCoordinate]:
        return itertools.starmap(TreeCoordinate, itertools.product(self.paths, self.ranks))


def coordinates(gradus: int) -> list[TreeCoordinate]:
    """All person coordinates at the given degree under the v1 layout.

    Ordered pairs come out in lexicographic order, so (a, b) precedes (b, a)
    whenever a < b and both occur.  The list length is personae_count(gradus),
    and the list is allocated once, at that length.
    """
    return list(_Layout(refuse_past("coordinate listing", gradus, 0)))
