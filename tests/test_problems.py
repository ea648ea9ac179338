import itertools
import tracemalloc

import pytest

from combinatoria.caput import CaputSpec, HeadMode, count_caput
from combinatoria.errors import EnumerationTooLargeError, InvalidDegreeError, InvariantViolationError
from combinatoria.partitions import Partition, class_order, partition_to_cycle_type
from combinatoria.perm import Permutation
from combinatoria.problems import (
    SIMPLICITER,
    canonical_vicinity,
    complexiones_simpliciter,
    complexions,
    problem7_product,
    reduce_to_caput,
    solve,
    variations_of_order,
    vicinity_classes,
    vicinity_variations,
)

from conftest import all_perms


def rotations(image):
    return {image[k:] + image[:k] for k in range(len(image))}


class TestComplexions:
    def test_pairs_of_four(self):
        assert complexions(4, 2) == 6
        assert complexions(4, 2) == sum(
            1 for _ in itertools.combinations("abcd", 2)
        )

    def test_empty_complexion(self):
        assert complexions(5, 0) == 1

    def test_unions_of_four(self):
        assert complexions(4, 1) == 4

    def test_oversized_exponent_counts_zero(self):
        assert complexions(3, 7) == 0

    def test_against_subset_listing_up_to_12(self):
        for n in range(13):
            for k in range(n + 2):
                listed = sum(1 for _ in itertools.combinations(range(n), k))
                assert complexions(n, k) == listed

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolationError):
            complexions(-1, 0)


class TestSimpliciter:
    @pytest.mark.parametrize("n,expected", [(1, 1), (4, 15), (6, 63)])
    def test_classical_values(self, n, expected):
        assert complexiones_simpliciter(n) == expected

    def test_four_splits_as_unions_through_com4natio(self):
        assert complexiones_simpliciter(4) == 4 + 6 + 4 + 1

    def test_sum_of_exponent_counts_up_to_20(self):
        for n in range(1, 21):
            total = sum(complexions(n, k) for k in range(1, n + 1))
            assert complexiones_simpliciter(n) == total == 2**n - 1

    def test_empty_subset_variant_behind_flag(self):
        assert complexiones_simpliciter(5, include_empty=True) == 32

    def test_empty_whole_rejected(self):
        with pytest.raises(InvalidDegreeError):
            complexiones_simpliciter(0)


class TestVariationsOfOrder:
    def test_four_things_transpose_24_ways(self):
        assert variations_of_order(4) == 24

    def test_single_thing(self):
        assert variations_of_order(1) == 1

    def test_eight_matches_full_enumeration(self):
        assert variations_of_order(8) == sum(1 for _ in all_perms(8))

    def test_zero_rejected(self):
        with pytest.raises(InvalidDegreeError):
            variations_of_order(0)


class TestVicinity:
    def test_four_on_a_circle(self):
        assert vicinity_variations(4) == 6
        assert vicinity_variations(4) == variations_of_order(4) // 4

    def test_one_thing_one_neighbourhood(self):
        assert vicinity_variations(1) == 1

    def test_five_matches_rotation_class_listing(self):
        classes = {
            min(rotations(image)) for image in all_perms(5)
        }
        assert vicinity_variations(5) == len(classes) == 24

    def test_triangle_with_class_order_and_head_count(self):
        for n in range(1, 9):
            full_cycle = partition_to_cycle_type(Partition((n,)))
            monadic = CaputSpec(degree=n, head=frozenset({1}), mode=HeadMode.LOOSE)
            assert (
                vicinity_variations(n)
                == class_order(full_cycle).order
                == count_caput(monadic)
            )


class TestVicinityClasses:
    def test_the_four_letter_circle_collapses(self):
        canon = {
            canonical_vicinity(arr).image
            for arr in [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)]
        }
        assert canon == {(1, 2, 3, 4)}

    def test_canonical_vicinity_validates_only_a_raw_sequence(self, monkeypatch):
        arrangement, rotated = Permutation((2, 3, 1, 4)), Permutation((1, 4, 2, 3))
        validated = []
        true_init = Permutation.__init__

        def counted(self, image):
            validated.append(image)
            true_init(self, image)

        monkeypatch.setattr(Permutation, "__init__", counted)
        assert canonical_vicinity(arrangement) == rotated
        assert validated == []
        assert canonical_vicinity([2, 3, 1, 4]) == rotated
        assert validated == [[2, 3, 1, 4]]
        with pytest.raises(InvariantViolationError, match="not a bijection"):
            canonical_vicinity([2, 3, 1, 3])

    def test_two_things(self):
        assert len(vicinity_classes(2)) == 1

    def test_four_things_give_six_representatives(self):
        reps = vicinity_classes(4)
        assert len(reps) == 6
        assert all(p.image[0] == 1 for p in reps)

    def test_representatives_are_pairwise_inequivalent_and_complete(self):
        for n in range(1, 7):
            reps = vicinity_classes(n)
            assert len({p.image for p in reps}) == len(reps)
            covered = set()
            for image in all_perms(n):
                target = canonical_vicinity(image).image
                assert target in {p.image for p in reps}
                covered.add(target)
            assert covered == {p.image for p in reps}

    def test_lexicographic_order(self):
        reps = [p.image for p in vicinity_classes(5)]
        assert reps == sorted(reps)

    def test_ceiling(self):
        with pytest.raises(EnumerationTooLargeError, match="10"):
            vicinity_classes(11)


class TestProblem7Product:
    def test_monadic_head_over_four(self):
        assert problem7_product(4, 1) == 6

    def test_everything_in_the_head(self):
        assert problem7_product(5, 5) == 1

    def test_pair_head_over_six(self):
        assert problem7_product(6, 2) == 24  # brute force: fix two, vary four

    def test_always_matches_loose_head_count(self):
        for n in range(1, 9):
            for k in range(n + 1):
                spec = CaputSpec(degree=n, head=frozenset(range(1, k + 1)))
                assert problem7_product(n, k) == count_caput(spec)

    def test_head_size_out_of_range(self):
        with pytest.raises(InvariantViolationError):
            problem7_product(4, 5)


class TestSolve:
    def test_problem_4(self):
        result = solve(4, n=4)
        assert result.count == 24
        assert result.status == "ok"

    def test_problem_5(self):
        assert solve(5, n=4).count == 6

    def test_problem_7_needs_head_size(self):
        assert solve(7, n=4, k=1).count == 6
        with pytest.raises(InvariantViolationError):
            solve(7, n=4)

    def test_complexion_problems_need_exponent(self):
        assert solve(1, n=4, k=2).count == 6
        with pytest.raises(InvariantViolationError):
            solve(2, n=4)

    def test_simpliciter(self):
        assert solve(SIMPLICITER, n=4).count == 15

    @pytest.mark.parametrize("pid", [6, 8, 9, 11, 12])
    def test_reserved_problems_stay_unanswered(self, pid):
        result = solve(pid, n=4)
        assert result.status == "not-specified-in-source"
        assert result.count is None

    def test_problem_10_points_at_the_containment_predicate(self):
        result = solve(10, n=4)
        assert result.status == "not-a-counting-problem"
        assert result.count is None

    def test_unknown_id(self):
        with pytest.raises(InvariantViolationError):
            solve(13, n=4)

    def test_witnesses_match_count(self):
        result = solve(4, n=4, with_witnesses=True)
        assert result.witnesses is not None
        assert len(result.witnesses) == result.count == 24
        assert not result.truncated

    def test_witness_truncation_is_flagged(self):
        result = solve(4, n=6, with_witnesses=True, witness_limit=10)
        assert result.truncated
        assert len(result.witnesses) == 10

    def test_vicinity_witnesses(self):
        result = solve(5, n=4, with_witnesses=True)
        assert len(result.witnesses) == 6

    def test_vicinity_witnesses_past_the_class_ceiling(self):
        result = solve(5, n=12, with_witnesses=True)
        assert result.truncated
        assert len(result.witnesses) == 1000
        assert result.witnesses[0] == tuple(range(1, 13))

    def test_witnesses_do_not_materialize_the_whole_group(self):
        tracemalloc.start()
        try:
            result = solve(4, n=9, with_witnesses=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.truncated
        assert len(result.witnesses) == 1000
        assert peak < 1_000_000  # all 9! images would take tens of MB


class TestReduceToCaput:
    def test_problem_4_reduces_to_the_empty_head(self):
        record = reduce_to_caput(4, n=4)
        assert record.status == "ok"
        assert record.direct_count == record.caput_count == 24
        assert record.agrees

    def test_problem_5_reduces_to_the_monadic_head(self):
        record = reduce_to_caput(5, n=4)
        assert record.direct_count == record.caput_count == 6
        assert record.agrees

    def test_reductions_never_disagree(self):
        for n in range(1, 9):
            assert reduce_to_caput(4, n=n).agrees
            assert reduce_to_caput(5, n=n).agrees
            for k in range(n + 1):
                assert reduce_to_caput(1, n=n, k=k).agrees

    def test_complexion_reduction_counts_heads(self):
        record = reduce_to_caput(3, n=5, k=2)
        assert record.direct_count == record.caput_count == 10
        assert "head" in record.head_description

    def test_simpliciter_is_marked_not_reducible(self):
        record = reduce_to_caput(SIMPLICITER, n=4)
        assert record.status == "not-reducible"
        assert record.caput_count is None
        assert record.agrees is None
        assert record.direct_count == 15

    def test_problem_6_has_no_source_content(self):
        record = reduce_to_caput(6, n=4)
        assert record.status == "not-specified-in-source"

    def test_exponent_past_the_whole_lists_nothing_without_the_pool(self):
        n = 2_000_000
        tracemalloc.start()
        try:
            record = reduce_to_caput(1, n, n + 1)
            reduced = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            result = solve(1, n, n + 1, with_witnesses=True)
            solved = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a pool of 2M points takes about 96 MB
        assert reduced < 1_000_000 and solved < 1_000_000
        assert record.direct_count == record.caput_count == 0
        assert result.count == 0 and result.witnesses == () and not result.truncated

    def test_head_problems_are_not_reduction_targets(self):
        with pytest.raises(InvariantViolationError):
            reduce_to_caput(7, n=4, k=1)
