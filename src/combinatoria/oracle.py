"""Brute-force enumeration backend: the ground truth the closed forms answer to.

Everything here counts by generating and filtering, never by formula, and the
cycle walking is deliberately re-implemented rather than imported: a bug
shared between a closed form and its oracle would validate itself.  The
closed forms under test are reached through their modules (``partitions.X``,
``caput.Y``) so a corrupted implementation is seen by the checks.

Speed is a non-goal; the enumerations are merely kept few and linear so the
full sweep stays inside its time budget.  One census per degree, cached,
feeds every check of S_n.  One pass over S_n counts the permutations by their
partition of the points into cycles, keyed by orbit masks (the bitmask of
each cycle's points), and a second collects the rotation classes.  Off the
counts are read cycle types (each length the popcount of its mask), fixed
points (the single-bit masks), invariant sets (so every head subset is
checked at every degree) and derangements.  Each listing is compared, in
the order its docstring promises, with the oracle's own: the cycle types
with the census's, the vicinity representatives with the rotation classes,
and each gradus's coordinates with every path 0 .. 2^n - 1 taken with every
rank 0 .. n, one block of paths at a time: in each block the sequens column
must be the ranks repeated and the antecedens column, read at stride n + 1,
the block's paths; their count is the list's length.

Each check yields its counterexamples; ``verify_all`` reports the first one
of each, or a pass.
"""
from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from . import caput, genealogy, partitions, problems
from ._value import Value
from .caput import HeadMode
from .errors import InvalidDegreeError, InvariantViolationError, refuse_past

__all__ = [
    "OracleReport",
    "count_caput_by_filter",
    "count_partitions_by_enumeration",
    "count_two_part_by_enumeration",
    "count_derangements_by_filter",
    "cycle_type_census",
    "rotation_class_census",
    "verify_all",
]


class OracleReport(Value):
    """One closed-form-vs-enumeration comparison, pass or fail."""

    __slots__ = ("claim", "n_range", "passed", "counterexample")
    claim: str
    n_range: str
    passed: bool
    counterexample: str | None

    def __init__(
        self, claim: str, n_range: str, passed: bool, counterexample: str | None = None
    ) -> None:
        if not passed and not counterexample:
            raise InvariantViolationError("a failed report must carry a counterexample")
        self._fill(claim, n_range, passed, counterexample)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _orbit_masks(image: tuple[int, ...]) -> tuple[int, ...]:
    # Independent cycle walk (no perm module involvement): the bitmask of each
    # cycle's points, point i at bit i, the cycles listed by least point.
    masks = []
    rest = (2 << len(image)) - 2  # the points not yet walked, 1..n
    while rest:
        mask = rest & -rest  # the least of them starts the next cycle
        start = mask.bit_length() - 1
        x = image[start - 1]
        while x != start:
            mask |= 1 << x
            x = image[x - 1]
        rest ^= mask
        masks.append(mask)
    return tuple(masks)


class _Census(NamedTuple):
    cycle_types: Counter[tuple[int, ...]]
    fixed: Counter[int]
    invariant: Counter[int]
    rotations: frozenset[tuple[int, ...]]


def _census(n: int) -> _Census:
    # n is read before the cached walk, whose key must hash
    n = refuse_past("S_n walk", n)
    if n < 1:
        raise InvalidDegreeError("degree 0 is not admitted; degrees start at 1")
    return _walk(n)


@lru_cache(maxsize=None)
def _walk(n: int) -> _Census:
    # One pass over S_n counts each partition of the points into cycles, keyed
    # by its orbit masks (canonical, the cycles listed by least point; Bell(n)
    # keys, 4140 at n = 8); a second keeps each arrangement rotated to put 1
    # first.  The other fields are read off the partitions, each weighted by
    # its count, a cycle's length being the popcount of its mask:
    # cycle_types counts each multiset of cycle lengths; fixed[m] counts the
    # permutations whose fixed points (the single-bit masks) are exactly the
    # mask m; invariant[m] those for which m is a union of cycles.
    points = range(1, n + 1)
    by_partition = Counter(map(_orbit_masks, itertools.permutations(points)))
    rotations = {
        image[k:] + image[:k]
        for image in itertools.permutations(points)
        for k in (image.index(1),)
    }
    cycle_types, fixed, invariant = Counter(), Counter(), Counter()
    for masks, count in by_partition.items():
        lengths = [mask.bit_count() for mask in masks]
        fixed_mask = 0
        unions = [0]
        for length, mask in zip(lengths, masks):
            if length == 1:
                fixed_mask |= mask
            unions += [u | mask for u in unions]
        cycle_types[tuple(sorted(lengths, reverse=True))] += count
        fixed[fixed_mask] += count
        for union in unions:
            invariant[union] += count
    # frozen from a set: the copy's table fits its items, half the size of the
    # table the set grew to (262 KB against 524 KB kept at n = 8)
    return _Census(cycle_types, fixed, invariant, frozenset(rotations))


def cycle_type_census(n: int) -> dict[tuple[int, ...], int]:
    """How many permutations of S_n carry each multiset of cycle lengths."""
    return dict(_census(n).cycle_types)


def count_caput_by_filter(n: int, head: frozenset[int], mode: HeadMode) -> int:
    """Head count read off the census of S_n.

    LOOSE counts permutations whose fixed points cover the head, EXACT those
    whose fixed points equal it, SETWISE those for which the head is a union
    of cycles (i.e. is mapped onto itself).  The degree, head and mode are
    read as ``CaputSpec`` reads them, so a head past the degree or an unknown
    mode is refused by name.
    """
    spec = caput.CaputSpec(n, head, mode)
    h = sum(1 << i for i in spec.head)
    census = _census(spec.degree)
    if spec.mode is HeadMode.LOOSE:
        return sum(count for mask, count in census.fixed.items() if mask & h == h)
    if spec.mode is HeadMode.EXACT:
        return census.fixed[h]
    return census.invariant[h]


def count_partitions_by_enumeration(n: int) -> int:
    """p(n) by walking every partition; no recurrence involved."""
    n = refuse_past("partition walk", n)
    if n < 0:
        raise InvariantViolationError("partitions are defined for n >= 0")

    def walk(remaining: int, cap: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for first in range(min(cap, remaining), 0, -1):
            total += walk(remaining - first, first)
        return total

    return walk(n, n)


def count_two_part_by_enumeration(n: int) -> int:
    """Two-part partitions by listing the pairs (a, n-a) with a >= n-a >= 1."""
    n = refuse_past("pair listing", n)
    return sum(1 for a in range(1, n) if a >= n - a)


def count_derangements_by_filter(m: int) -> int:
    """Permutations of m points without fixed points, read off the census."""
    m = refuse_past("S_n walk", m)
    if m < 0:
        raise InvariantViolationError("derangements are defined for m >= 0")
    if m == 0:
        return 1
    return _census(m).fixed[0]


def rotation_class_census(n: int) -> frozenset[tuple[int, ...]]:
    """Distinct rotation classes of all n! arrangements, as canonical forms."""
    return _census(n).rotations


# -- the registered comparisons ------------------------------------------------
# Each check walks its range up to top and yields counterexample texts.

def _first_difference(where: str, listed: Iterable, expected: Iterable) -> Iterator[str]:
    # where a listing first departs from the oracle's own; a listing that ends
    # early or runs on shows None opposite the first gap
    for i, (got, want) in enumerate(itertools.zip_longest(listed, expected)):
        if got != want:
            yield f"{where}: item {i} listed {got}, expected {want}"
            return


def _check_class_orders(top: int) -> Iterator[str]:
    for n in range(1, top + 1):
        census = cycle_type_census(n)
        types = list(partitions.cycle_types_of(n))  # walked twice
        # the listing steps ZS1's order on count vectors: reverse
        # lexicographic on the descending cycle lengths
        yield from _first_difference(
            f"n={n}", [t.cycle_lengths() for t in types], sorted(census, reverse=True)
        )
        for t in types:
            formula = partitions.class_order(t).order
            counted = census.get(t.cycle_lengths(), 0)
            if formula != counted:
                yield (f"n={n}, cycle lengths {t.cycle_lengths()}: "
                       f"formula {formula}, census {counted}")


def _check_caput_counts(top: int) -> Iterator[str]:
    for n in range(1, top + 1):
        for bits in range(2**n):
            head = frozenset(i for i in range(1, n + 1) if bits >> (i - 1) & 1)
            for mode in HeadMode:
                closed = caput.count_caput(caput.CaputSpec(degree=n, head=head, mode=mode))
                filtered = count_caput_by_filter(n, head, mode)
                if closed != filtered:
                    yield (f"n={n}, head {sorted(head)}, mode {mode.value}: "
                           f"closed form {closed}, filter {filtered}")


def _check_vicinity_triangle(top: int) -> Iterator[str]:
    for n in range(1, top + 1):
        counted = len(rotation_class_census(n))
        closed = problems.vicinity_variations(n)
        full_cycle = partitions.class_order(
            partitions.partition_to_cycle_type(partitions.Partition((n,)))
        ).order
        if not (closed == full_cycle == counted):
            yield f"n={n}: vicinity {closed}, class order {full_cycle}, census {counted}"


def _check_vicinity_classes(top: int) -> Iterator[str]:
    for n in range(1, top + 1):
        representatives = [p.image for p in problems.vicinity_classes(n)]
        yield from _first_difference(f"n={n}", representatives, sorted(rotation_class_census(n)))


def _check_complexions(top: int) -> Iterator[str]:
    for n in range(1, top + 1):
        by_size = [0] * (n + 1)
        for mask in range(2**n):
            by_size[bin(mask).count("1")] += 1
        for k in range(n + 1):
            closed = problems.complexions(n, k)
            if closed != by_size[k]:
                yield f"n={n}, k={k}: closed form {closed}, census {by_size[k]}"
        simpliciter = problems.complexiones_simpliciter(n)
        nonempty = sum(by_size[1:])
        if simpliciter != nonempty:
            yield f"n={n}: simpliciter {simpliciter}, non-empty census {nonempty}"


def _check_partition_counts(top: int) -> Iterator[str]:
    for n in range(0, top + 1):
        closed = partitions.count_partitions(n)
        walked = count_partitions_by_enumeration(n)
        if closed != walked:
            yield f"N={n}: recurrence {closed}, walk {walked}"


def _check_two_part_counts(top: int) -> Iterator[str]:
    for n in range(2, top + 1):
        closed = partitions.two_part_count(n)
        listed = count_two_part_by_enumeration(n)
        if closed != listed:
            yield f"N={n}: formula {closed}, listing {listed}"


def _check_derangements(top: int) -> Iterator[str]:
    for m in range(0, top + 1):
        recurrence = caput.derangements(m)
        alternating = caput.derangements_by_inclusion_exclusion(m)
        filtered = count_derangements_by_filter(m)
        if not (recurrence == alternating == filtered):
            yield (f"m={m}: recurrence {recurrence}, inclusion-exclusion "
                   f"{alternating}, census {filtered}")


_pair = operator.attrgetter("antecedens", "sequens")
_antecedens, _sequens = operator.attrgetter("antecedens"), operator.attrgetter("sequens")

# Paths per block of the coordinate compare, a power of two so that every
# block is full.  A bare verify_all(8) process (Python 3.11.7, 2 cores)
# peaked at 45.4-45.6 MB RSS with 256 paths, at 45.8-46.1 MB with 1024, and
# no lower with 128.
_BLOCK = 256


def _laid_out(coords: list, n: int) -> bool:
    # coords, of length 2^n * (n + 1), read one block of paths at a time:
    # the sequens column is the ranks 0..n repeated, and the antecedens
    # column, read at stride n + 1 from each offset 0..n, is the block's paths
    width, size = n + 1, min(_BLOCK, 1 << n)
    ranks = list(range(width)) * size
    items = iter(coords)
    for start in range(0, 1 << n, size):
        block = list(itertools.islice(items, size * width))
        if list(map(_sequens, block)) != ranks:
            return False
        column, paths = list(map(_antecedens, block)), list(range(start, start + size))
        if any(column[k::width] != paths for k in range(width)):
            return False
    return True


def _check_genealogy(top: int) -> Iterator[str]:
    # a block at a time builds no pair list; del frees each list first
    for n in range(0, top + 1):
        closed = genealogy.personae_count(n)
        coords = genealogy.coordinates(n)
        listed = len(coords)
        paths, ranks = range(1 << n), range(n + 1)
        if listed != len(paths) * len(ranks) or not _laid_out(coords, n):
            yield from _first_difference(
                f"gradus={n}", map(_pair, coords), itertools.product(paths, ranks)
            )
        del coords
        if listed != closed:
            yield f"gradus={n}: count {closed}, listed {listed}"


# (claim, range label up to its top, top as a function of max_n, check)
_SUITES: tuple[tuple[str, str, Callable[[int], int], Callable[[int], Iterator[str]]], ...] = (
    ("class-order formula vs cycle-type census",
     "n=1..", lambda max_n: min(max_n, 7), _check_class_orders),
    ("head counts (all modes) vs filtered enumeration",
     "n=1..", lambda max_n: min(max_n, 8), _check_caput_counts),
    ("vicinity count vs class order vs rotation census",
     "n=1..", lambda max_n: min(max_n, 8), _check_vicinity_triangle),
    ("vicinity class representatives vs rotation census",
     "n=1..", lambda max_n: min(max_n, 7), _check_vicinity_classes),
    ("complexion counts vs subset census",
     "n=1..", lambda max_n: min(max_n, 10), _check_complexions),
    ("partition recurrence vs exhaustive walk",
     "N=0..", lambda max_n: 3 * max_n, _check_partition_counts),
    ("two-part formula vs pair listing",
     "N=2..", lambda max_n: 10 * max_n, _check_two_part_counts),
    ("derangement numbers vs fixed-point-free census",
     "m=0..", lambda max_n: min(max_n, 8), _check_derangements),
    ("person count vs coordinate materialization",
     "gradus=0..", lambda max_n: min(2 * max_n, 15), _check_genealogy),
)


def verify_all(max_n: int) -> list[OracleReport]:
    """Run every registered comparison and report, deterministically.

    Failures are reported, never raised; max_n = 0 degenerates to an all-pass
    run over empty ranges.
    """
    max_n = refuse_past("verify sweep", max_n)
    if max_n < 0:
        raise InvariantViolationError("max_n must be >= 0")
    reports = []
    for claim, label, top_of, check in _SUITES:
        top = top_of(max_n)
        counterexample = next(check(top), None)
        reports.append(
            OracleReport(claim, f"{label}{top}", counterexample is None, counterexample)
        )
    return reports
