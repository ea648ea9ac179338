"""Brute-force enumeration backend: the ground truth the closed forms answer to.

Everything here counts by generating and filtering, never by formula, and the
cycle walking is deliberately re-implemented rather than imported: a bug
shared between a closed form and its oracle would validate itself.  The
closed forms under test are reached through their modules (``partitions.X``,
``caput.Y``) so a corrupted implementation is seen by the checks.

Speed is a non-goal; the enumerations are merely kept single-pass so the
full sweep stays inside its time budget.  Head counts are checked for every
head subset at every degree, read off one census walk of S_n per degree.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from . import caput, genealogy, partitions, problems
from .caput import HeadMode
from .errors import EnumerationTooLargeError, InvalidDegreeError, InvariantViolationError
from .perm import Permutation

__all__ = [
    "OracleReport",
    "enumerate_sn",
    "count_caput_by_filter",
    "count_partitions_by_enumeration",
    "count_two_part_by_enumeration",
    "count_derangements_by_filter",
    "cycle_type_census",
    "rotation_class_census",
    "verify_all",
    "SN_CEILING",
]

# 9! = 362880 streamed elements is the hard stop.
SN_CEILING = 9


@dataclass(frozen=True)
class OracleReport:
    """One closed-form-vs-enumeration comparison, pass or fail."""

    claim: str
    n_range: str
    passed: bool
    counterexample: str | None = None

    def __post_init__(self) -> None:
        if not self.passed and not self.counterexample:
            raise InvariantViolationError("a failed report must carry a counterexample")

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def enumerate_sn(n: int) -> Iterator[Permutation]:
    """Every element of S_n exactly once, lexicographic one-line order."""
    if n < 1:
        raise InvalidDegreeError("degree 0 is not admitted; degrees start at 1")
    if n > SN_CEILING:
        raise EnumerationTooLargeError(
            f"streaming S_{n} exceeds the ceiling {SN_CEILING}"
        )
    for image in itertools.permutations(range(1, n + 1)):
        yield Permutation(image)


def _own_cycles(image: tuple[int, ...]) -> list[tuple[int, int]]:
    # Independent cycle walk (no perm module involvement): (length, bitmask of
    # the cycle's points) per cycle, point i at bit i.
    seen = 0
    cycles = []
    for start in range(1, len(image) + 1):
        if seen >> start & 1:
            continue
        length = mask = 0
        x = start
        while not mask >> x & 1:
            mask |= 1 << x
            length += 1
            x = image[x - 1]
        seen |= mask
        cycles.append((length, mask))
    return cycles


def _own_cycle_lengths(image: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((length for length, _ in _own_cycles(image)), reverse=True))


def cycle_type_census(n: int) -> dict[tuple[int, ...], int]:
    """How many permutations of S_n carry each multiset of cycle lengths."""
    census: dict[tuple[int, ...], int] = {}
    for image in itertools.permutations(range(1, n + 1)):
        key = _own_cycle_lengths(image)
        census[key] = census.get(key, 0) + 1
    return census


@lru_cache(maxsize=None)
def _head_census(n: int) -> tuple[Counter[int], Counter[int]]:
    # One walk over S_n.  fixed[m] counts the permutations whose fixed points
    # are exactly the mask m; invariant[m] those for which m is a union of
    # cycles.  Each permutation adds its 2^c unions, (n+1)! entries in all.
    fixed: Counter[int] = Counter()
    invariant: Counter[int] = Counter()
    for image in itertools.permutations(range(1, n + 1)):
        fixed_mask = 0
        unions = [0]
        for length, mask in _own_cycles(image):
            if length == 1:
                fixed_mask |= mask
            unions += [u | mask for u in unions]
        fixed[fixed_mask] += 1
        invariant.update(unions)
    return fixed, invariant


def count_caput_by_filter(n: int, head: frozenset[int], mode: HeadMode) -> int:
    """Head count read off one census walk over all of S_n, cached per degree.

    LOOSE counts permutations whose fixed points cover the head, EXACT those
    whose fixed points equal it, SETWISE those for which the head is a union
    of cycles (i.e. is mapped onto itself).
    """
    if n > SN_CEILING:
        raise EnumerationTooLargeError(
            f"filtering S_{n} exceeds the ceiling {SN_CEILING}"
        )
    h = 0
    for i in head:
        h |= 1 << i
    fixed, invariant = _head_census(n)
    if mode is HeadMode.LOOSE:
        return sum(count for mask, count in fixed.items() if mask & h == h)
    if mode is HeadMode.EXACT:
        return fixed[h]
    return invariant[h]


def count_partitions_by_enumeration(n: int) -> int:
    """p(n) by walking every partition; no recurrence involved."""
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
    return sum(1 for a in range(1, n) if a >= n - a)


def count_derangements_by_filter(m: int) -> int:
    """Permutations of m points without fixed points, by filtration."""
    if m == 0:
        return 1
    return sum(
        1
        for image in itertools.permutations(range(1, m + 1))
        if all(x != i for i, x in enumerate(image, start=1))
    )


def _canonical_rotation(image: tuple[int, ...]) -> tuple[int, ...]:
    k = image.index(1)
    return image[k:] + image[:k]


def rotation_class_census(n: int) -> set[tuple[int, ...]]:
    """Distinct rotation classes of all n! arrangements, as canonical forms."""
    return {
        _canonical_rotation(image)
        for image in itertools.permutations(range(1, n + 1))
    }


# -- the registered comparisons ------------------------------------------------

def _check_class_orders(max_n: int) -> OracleReport:
    top = min(max_n, 7)
    for n in range(1, top + 1):
        census = cycle_type_census(n)
        types = partitions.cycle_types_of(n)
        if len(types) != len(census):
            return OracleReport(
                "class-order formula vs cycle-type census",
                f"n=1..{top}",
                False,
                f"n={n}: {len(types)} cycle types claimed, census saw {len(census)}",
            )
        for t in types:
            formula = partitions.class_order(t).order
            counted = census.get(t.cycle_lengths(), 0)
            if formula != counted:
                return OracleReport(
                    "class-order formula vs cycle-type census",
                    f"n=1..{top}",
                    False,
                    f"n={n}, cycle lengths {t.cycle_lengths()}: "
                    f"formula {formula}, census {counted}",
                )
    return OracleReport(
        "class-order formula vs cycle-type census", f"n=1..{top}", True
    )


def _check_caput_counts(max_n: int) -> OracleReport:
    top = min(max_n, 8)
    for n in range(1, top + 1):
        for bits in range(2**n):
            head = frozenset(i for i in range(1, n + 1) if bits >> (i - 1) & 1)
            for mode in HeadMode:
                spec = caput.CaputSpec(degree=n, head=head, mode=mode)
                closed = caput.count_caput(spec)
                filtered = count_caput_by_filter(n, head, mode)
                if closed != filtered:
                    return OracleReport(
                        "head counts (all modes) vs filtered enumeration",
                        f"n=1..{top}",
                        False,
                        f"n={n}, head {sorted(head)}, mode {mode.value}: "
                        f"closed form {closed}, filter {filtered}",
                    )
    return OracleReport(
        "head counts (all modes) vs filtered enumeration", f"n=1..{top}", True
    )


def _check_vicinity_triangle(max_n: int) -> OracleReport:
    top = min(max_n, 8)
    for n in range(1, top + 1):
        counted = len(rotation_class_census(n))
        closed = problems.vicinity_variations(n)
        full_cycle = partitions.class_order(
            partitions.partition_to_cycle_type(partitions.Partition((n,)))
        ).order
        if not (closed == full_cycle == counted):
            return OracleReport(
                "vicinity count vs class order vs rotation census",
                f"n=1..{top}",
                False,
                f"n={n}: vicinity {closed}, class order {full_cycle}, census {counted}",
            )
    return OracleReport(
        "vicinity count vs class order vs rotation census", f"n=1..{top}", True
    )


def _check_vicinity_classes(max_n: int) -> OracleReport:
    top = min(max_n, 7)
    for n in range(1, top + 1):
        reps = problems.vicinity_classes(n)
        rep_images = [p.image for p in reps]
        if len(set(rep_images)) != len(rep_images):
            return OracleReport(
                "vicinity class representatives vs rotation census",
                f"n=1..{top}",
                False,
                f"n={n}: duplicate representatives",
            )
        bad = [img for img in rep_images if img[0] != 1]
        if bad:
            return OracleReport(
                "vicinity class representatives vs rotation census",
                f"n=1..{top}",
                False,
                f"n={n}: non-canonical representative {bad[0]}",
            )
        if set(rep_images) != rotation_class_census(n):
            return OracleReport(
                "vicinity class representatives vs rotation census",
                f"n=1..{top}",
                False,
                f"n={n}: representative set differs from the census",
            )
    return OracleReport(
        "vicinity class representatives vs rotation census", f"n=1..{top}", True
    )


def _check_complexions(max_n: int) -> OracleReport:
    top = min(max_n, 10)
    for n in range(1, top + 1):
        by_size = [0] * (n + 1)
        for mask in range(2**n):
            by_size[bin(mask).count("1")] += 1
        for k in range(n + 1):
            closed = problems.complexions(n, k)
            if closed != by_size[k]:
                return OracleReport(
                    "complexion counts vs subset census",
                    f"n=1..{top}",
                    False,
                    f"n={n}, k={k}: closed form {closed}, census {by_size[k]}",
                )
        simpliciter = problems.complexiones_simpliciter(n)
        nonempty = sum(by_size[1:])
        if simpliciter != nonempty:
            return OracleReport(
                "complexion counts vs subset census",
                f"n=1..{top}",
                False,
                f"n={n}: simpliciter {simpliciter}, non-empty census {nonempty}",
            )
    return OracleReport("complexion counts vs subset census", f"n=1..{top}", True)


def _check_partition_counts(max_n: int) -> OracleReport:
    top = 3 * max_n
    for n in range(0, top + 1):
        closed = partitions.count_partitions(n)
        walked = count_partitions_by_enumeration(n)
        if closed != walked:
            return OracleReport(
                "partition recurrence vs exhaustive walk",
                f"N=0..{top}",
                False,
                f"N={n}: recurrence {closed}, walk {walked}",
            )
    return OracleReport("partition recurrence vs exhaustive walk", f"N=0..{top}", True)


def _check_two_part_counts(max_n: int) -> OracleReport:
    top = 10 * max_n
    for n in range(2, top + 1):
        closed = partitions.two_part_count(n)
        listed = count_two_part_by_enumeration(n)
        if closed != listed:
            return OracleReport(
                "two-part formula vs pair listing",
                f"N=2..{top}",
                False,
                f"N={n}: formula {closed}, listing {listed}",
            )
    return OracleReport("two-part formula vs pair listing", f"N=2..{top}", True)


def _check_derangements(max_n: int) -> OracleReport:
    top = min(max_n, 8)
    for m in range(0, top + 1):
        recurrence = caput.derangements(m)
        alternating = caput.derangements_by_inclusion_exclusion(m)
        filtered = count_derangements_by_filter(m)
        if not (recurrence == alternating == filtered):
            return OracleReport(
                "derangement numbers vs fixed-point-free census",
                f"m=0..{top}",
                False,
                f"m={m}: recurrence {recurrence}, inclusion-exclusion "
                f"{alternating}, census {filtered}",
            )
    return OracleReport(
        "derangement numbers vs fixed-point-free census", f"m=0..{top}", True
    )


def _check_genealogy(max_n: int) -> OracleReport:
    top = min(2 * max_n, 15)
    for n in range(0, top + 1):
        coords = genealogy.coordinates(n)
        closed = genealogy.personae_count(n)
        pairs = {(c.antecedens, c.sequens) for c in coords}
        if len(coords) != closed or len(pairs) != len(coords):
            return OracleReport(
                "person count vs coordinate materialization",
                f"gradus=0..{top}",
                False,
                f"gradus={n}: count {closed}, listed {len(coords)}, "
                f"distinct {len(pairs)}",
            )
    return OracleReport(
        "person count vs coordinate materialization", f"gradus=0..{top}", True
    )


_SUITES: tuple[tuple[str, Callable[[int], OracleReport]], ...] = (
    ("class_orders", _check_class_orders),
    ("caput_counts", _check_caput_counts),
    ("vicinity_triangle", _check_vicinity_triangle),
    ("vicinity_classes", _check_vicinity_classes),
    ("complexions", _check_complexions),
    ("partition_counts", _check_partition_counts),
    ("two_part_counts", _check_two_part_counts),
    ("derangements", _check_derangements),
    ("genealogy_coordinates", _check_genealogy),
)


def verify_all(max_n: int) -> list[OracleReport]:
    """Run every registered comparison and report, deterministically.

    Failures are reported, never raised; max_n = 0 degenerates to an all-pass
    run over empty ranges.
    """
    if max_n < 0:
        raise InvariantViolationError("max_n must be >= 0")
    if max_n > 8:
        raise EnumerationTooLargeError(
            f"full verification sweeps are capped at max_n=8, got {max_n}"
        )
    return [check(max_n) for _, check in _SUITES]
