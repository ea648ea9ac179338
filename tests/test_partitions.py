import math
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combinatoria.errors import EnumerationTooLargeError, InvariantViolationError
import combinatoria.partitions as partitions_mod
from combinatoria.partitions import (
    COUNTING_CEILING,
    ClassOrder,
    Partition,
    class_order,
    count_partitions,
    cycle_type_to_partition,
    cycle_types_of,
    enumerate_partitions,
    partition_to_cycle_type,
    two_part_count,
)
from combinatoria.perm import CycleType, Permutation, cycle_type

from conftest import all_perms

# the classical 11-item list for N = 6, in its printed order
PARTITIONS_OF_SIX = [
    "6",
    "5,1",
    "4,2",
    "4,1,1",
    "3,3",
    "3,2,1",
    "3,1,1,1",
    "2,2,2",
    "2,2,1,1",
    "2,1,1,1,1",
    "1,1,1,1,1,1",
]


def brute_force_partitions(n: int) -> list[tuple[int, ...]]:
    """Oracle: filter the non-increasing sequences out of all compositions."""
    def compositions(m):
        if m == 0:
            yield ()
            return
        for first in range(1, m + 1):
            for rest in compositions(m - first):
                yield (first,) + rest

    return [c for c in compositions(n) if all(a >= b for a, b in zip(c, c[1:]))]


class TestPartitionType:
    def test_str_joins_parts_with_commas(self):
        assert str(Partition((3, 2, 1))) == "3,2,1"

    def test_total(self):
        assert Partition((4, 1, 1)).total == 6
        assert Partition(()).total == 0

    @pytest.mark.parametrize("parts", [(1, 2), (0,), (-1,), (2, 3, 1)])
    def test_invalid_parts_rejected(self, parts):
        with pytest.raises(InvariantViolationError):
            Partition(parts)


class TestEnumerate:
    def test_partitions_of_six_match_the_printed_list(self):
        assert [str(p) for p in enumerate_partitions(6)] == PARTITIONS_OF_SIX

    def test_zero_has_one_empty_partition(self):
        assert enumerate_partitions(0) == [Partition(())]

    def test_four_has_five_partitions(self):
        assert len(enumerate_partitions(4)) == 5

    @pytest.mark.parametrize("n", range(0, 13))
    def test_against_composition_filter_oracle(self, n):
        expected = sorted(brute_force_partitions(n), reverse=True)
        assert [p.parts for p in enumerate_partitions(n)] == expected

    def test_reverse_lexicographic_order(self):
        for n in (5, 9, 14):
            seq = [p.parts for p in enumerate_partitions(n)]
            assert seq == sorted(seq, reverse=True)

    def test_ceiling_is_named_in_the_error(self):
        with pytest.raises(EnumerationTooLargeError, match="120"):
            enumerate_partitions(121)


class TestCount:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 1), (6, 11), (8, 22), (10, 42), (20, 627), (100, 190569292)],
    )
    def test_classical_values(self, n, expected):
        # every value here re-derivable by exhaustive listing; see the
        # composition-filter oracle above and the acceptance suite
        assert count_partitions(n) == expected

    def test_growth_is_an_abyss(self):
        assert count_partitions(10) < count_partitions(20) < count_partitions(100)

    def test_matches_enumeration_up_to_40(self):
        for n in range(41):
            assert count_partitions(n) == len(enumerate_partitions(n))

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolationError):
            count_partitions(-1)

    def test_counting_ceiling_refuses_before_the_table_grows(self):
        size = len(partitions_mod._pn_table)
        assert size <= COUNTING_CEILING
        with pytest.raises(EnumerationTooLargeError, match=str(COUNTING_CEILING)):
            count_partitions(COUNTING_CEILING + 1)
        with pytest.raises(EnumerationTooLargeError):
            count_partitions(10**40)
        assert len(partitions_mod._pn_table) == size

    def test_concurrent_fills_agree(self):
        results = []

        def worker():
            results.append(count_partitions(250))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert results[0] == count_partitions(250)


class TestTwoPart:
    def test_six_has_three(self):
        assert two_part_count(6) == 3
        pairs = [p.parts for p in enumerate_partitions(6) if len(p) == 2]
        assert pairs == [(5, 1), (4, 2), (3, 3)]

    def test_odd_case(self):
        assert two_part_count(7) == 3

    def test_two_is_one_plus_one(self):
        assert two_part_count(2) == 1

    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_below_two_counts_zero(self, n):
        assert two_part_count(n) == 0

    def test_matches_enumeration_2_to_60(self):
        for n in range(2, 61):
            expected = sum(1 for p in enumerate_partitions(n) if len(p) == 2)
            assert two_part_count(n) == expected

    @given(st.integers(min_value=2, max_value=10_000))
    def test_parity_closed_forms(self, n):
        expected = n // 2 if n % 2 == 0 else (n - 1) // 2
        assert two_part_count(n) == expected


class TestClassOrder:
    def test_full_cycle_class_is_factorial_over_n(self):
        for n in range(1, 9):
            t = CycleType.from_cycle_lengths(n, [n])
            assert class_order(t).order == math.factorial(n - 1)
        assert class_order(CycleType.from_cycle_lengths(4, [4])).order == 6

    def test_identity_class_is_singleton(self):
        for n in (1, 3, 7):
            t = CycleType.from_cycle_lengths(n, [1] * n)
            assert class_order(t).order == 1

    def test_worked_s6_class(self):
        t = CycleType(6, (3, 0, 1, 0, 0, 0))
        assert class_order(t).order == 40  # counted over S_6 by brute force

    def test_matches_census_up_to_s6(self):
        for n in range(1, 7):
            census = {}
            for image in all_perms(n):
                key = cycle_type(Permutation(image))
                census[key] = census.get(key, 0) + 1
            for t, counted in census.items():
                assert class_order(t).order == counted

    def test_class_equation_up_to_12(self):
        for n in range(1, 13):
            total = sum(class_order(t).order for t in cycle_types_of(n))
            assert total == math.factorial(n)

    def test_order_divides_group_order(self):
        for t in cycle_types_of(9):
            assert math.factorial(9) % class_order(t).order == 0

    def test_class_order_must_be_positive(self):
        with pytest.raises(InvariantViolationError):
            ClassOrder(degree=3, cycle_type=CycleType(3, (3, 0, 0)), order=0)


class TestCycleTypesOf:
    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 3), (6, 11)])
    def test_one_class_per_partition(self, n, expected):
        assert len(cycle_types_of(n)) == expected

    def test_every_type_is_well_formed(self):
        for t in cycle_types_of(10):
            assert sum(i * a for i, a in enumerate(t.alpha, start=1)) == 10

    def test_partition_round_trip(self):
        for p in enumerate_partitions(9):
            assert cycle_type_to_partition(partition_to_cycle_type(p)) == p

    def test_empty_partition_names_no_type(self):
        with pytest.raises(InvariantViolationError):
            partition_to_cycle_type(Partition(()))


# -- the class listing against a second route ------------------------------------
# The readers below loop over every i in 1..n, absent lengths included, as
# the library did before it read only the lengths present in alpha.

_SUBSCRIPT_DIGITS = "₀₁₂₃₄₅₆₇₈₉"


def _order_over_every_length(t: CycleType) -> int:
    denominator = 1
    for i, a in enumerate(t.alpha, start=1):
        denominator *= i**a * math.factorial(a)
    return math.factorial(t.degree) // denominator


def _lengths_over_every_length(t: CycleType) -> tuple[int, ...]:
    out = []
    for length in range(t.degree, 0, -1):
        out.extend([length] * t.alpha[length - 1])
    return tuple(out)


def _text_over_every_length(t: CycleType) -> str:
    parts = []
    for i, a in enumerate(t.alpha, start=1):
        if a > 0:
            subscript = "".join(_SUBSCRIPT_DIGITS[int(d)] for d in str(i))
            parts.append(f"α{subscript}={a}")
    return " ".join(parts)


class TestListingAgainstSecondRoute:
    def test_listing_equals_validated_types_of_the_partitions(self):
        for n in range(1, 31):
            assert cycle_types_of(n) == [
                CycleType.from_cycle_lengths(n, p.parts) for p in enumerate_partitions(n)
            ]

    def test_readers_equal_loops_over_every_length(self):
        for n in range(1, 31):
            for t in cycle_types_of(n):
                assert class_order(t).order == _order_over_every_length(t)
                assert t.cycle_lengths() == _lengths_over_every_length(t)
                assert str(t) == _text_over_every_length(t)

    def test_two_digit_lengths(self):
        assert str(CycleType.from_cycle_lengths(12, [12])) == "α₁₂=1"
        assert str(CycleType.from_cycle_lengths(23, [10, 10, 2, 1])) == "α₁=1 α₂=1 α₁₀=2"
        assert CycleType.from_cycle_lengths(23, [1, 10, 2, 10]).cycle_lengths() == (10, 10, 2, 1)
