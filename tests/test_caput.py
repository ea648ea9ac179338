import collections
import itertools
import math
import re
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combinatoria import caput
from combinatoria.caput import (
    CaputSpec,
    HeadMode,
    count_caput,
    derangements,
    derangements_by_inclusion_exclusion,
    enumerate_caput,
    is_caput_of,
    satisfies,
)
from combinatoria.errors import (
    EnumerationTooLargeError,
    GroundSetMismatchError,
    InvariantViolationError,
)
from combinatoria.perm import Permutation, cycle_type, format_one_line

from conftest import all_perms, naive_fixed_points

# the classical six rows obtained by pinning a to its place among a b c d
FIXED_A_ROWS = [
    "[1,2,3,4]",
    "[1,2,4,3]",
    "[1,3,2,4]",
    "[1,3,4,2]",
    "[1,4,2,3]",
    "[1,4,3,2]",
]


def brute_images(n: int, head: frozenset[int], mode: HeadMode):
    """Test-local filtration oracle over raw tuples, in lex order."""
    for image in all_perms(n):
        fixed = naive_fixed_points(image)
        if mode is HeadMode.LOOSE:
            ok = head <= fixed
        elif mode is HeadMode.EXACT:
            ok = fixed == head
        else:
            ok = {image[i - 1] for i in head} == set(head)
        if ok:
            yield image


def brute_count(n: int, head: frozenset[int], mode: HeadMode) -> int:
    return sum(1 for _ in brute_images(n, head, mode))


class TestSpec:
    def test_head_must_live_inside_the_degree(self):
        with pytest.raises(InvariantViolationError):
            CaputSpec(degree=3, head=frozenset({4}))

    def test_parse_head_pairs(self):
        spec = CaputSpec.parse_head(4, "1=a,3=c", HeadMode.EXACT)
        assert spec.head == {1, 3}
        assert spec.mode is HeadMode.EXACT

    def test_parse_head_accepts_numeric_occupants(self):
        assert CaputSpec.parse_head(4, "2=2").head == {2}

    def test_parse_head_empty_means_no_constraint(self):
        assert CaputSpec.parse_head(5, "").head == frozenset()

    def test_parse_head_rejects_displaced_occupant(self):
        with pytest.raises(InvariantViolationError, match="occupant"):
            CaputSpec.parse_head(4, "1=b")

    @pytest.mark.parametrize("bad", ["1", "x=a", "1=?"])
    def test_parse_head_rejects_junk(self, bad):
        with pytest.raises(InvariantViolationError):
            CaputSpec.parse_head(4, bad)

    def test_fixing_symbols(self):
        spec = CaputSpec.fixing_symbols(4, "a")
        assert spec.head == {1}
        assert spec.head_size == 1

    def test_head_contents_echo(self):
        spec = CaputSpec.parse_head(4, "1=a,3=c")
        assert spec.head_contents() == {1: "a", 3: "c"}
        assert CaputSpec(4, spec.head_contents().keys()) == CaputSpec(4, {1, 3}) == spec

    def test_symbols_are_letters_or_decimal_text(self):
        # one letter a..z is its place, any case and spacing; decimal text
        # is its number; past z a head is written in numbers
        spec = CaputSpec.fixing_symbols(30, [" D ", "z", "12", "27", 5, True])
        assert spec.head == {1, 4, 5, 12, 26, 27}
        assert spec == CaputSpec.parse_head(30, "1=A, 4=d, 5=5, 12=l, 26=Z, 27=27")
        assert spec.head_contents() == {1: "a", 4: "d", 5: "e", 12: "l", 26: "z", 27: "27"}
        assert CaputSpec.fixing_symbols(30, "adz") == CaputSpec(30, {1, 4, 26})

    @pytest.mark.parametrize(
        "call, message",
        [(lambda: is_caput_of({1: "9" * 5000}, "ab"), "a symbol has 5000 digits, too many to read"),
         (lambda: CaputSpec.fixing_symbols(4, ["9" * 5000]),
          "a symbol has 5000 digits, too many to read"),
         (lambda: CaputSpec.parse_head(4, "1=" + "9" * 5000),
          "a symbol has 5000 digits, too many to read"),
         (lambda: CaputSpec.parse_head(4, " " + "9" * 5000 + "=a"),
          "a head position has 5000 digits, too many to read"),
         (lambda: CaputSpec(10**5000, {10**5000}).head_contents(),
          "head position <an int of about 5001 digits> has too many digits to write")],
        ids=["is_caput_of", "fixing_symbols", "parse_head occupant", "parse_head position",
             "head_contents"],
    )
    def test_a_number_past_the_digit_limit_is_named(self, call, message):
        # int and str refuse such a number with a bare ValueError; the CLI
        # lifts the limit, so this reaches library callers only
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "position, quoted",
        [("+1", "'+1'"), ("1_0", "'1_0'"), ("-1", "'-1'"), (" x ", "'x'"),
         ("-" + "9" * 5000, f"'-{'9' * 31}'… (5001 characters)"),
         ("+" + "9" * 5000, f"'+{'9' * 31}'… (5001 characters)"),
         ("1_" + "9" * 5000, f"'1_{'9' * 30}'… (5002 characters)")],
        ids=["plus", "underscore", "minus", "letter", "minus long", "plus long",
             "underscore long"],
    )
    def test_a_head_position_is_decimal_digits_alone(self, position, quoted):
        # int would read a sign and underscores; a head position is read as
        # decimal digits, and long text is quoted in part, then its length
        message = f"a head position {quoted} is not a number"
        with pytest.raises(InvariantViolationError) as refused:
            CaputSpec.parse_head(20, f"{position}=j")
        assert str(refused.value) == message
        assert len(message) < 200

    def test_fixing_symbols_reads_a_collection(self):
        # a head has no order, so a set of symbols names one; a mapping, which
        # would read as its keys, is refused (see test_ceilings.MESSAGE_SITES)
        assert CaputSpec.fixing_symbols(4, {"a", 3}) == CaputSpec(4, {1, 3})
        assert CaputSpec.fixing_symbols(4, frozenset("ac")) == CaputSpec.fixing_symbols(4, "ac")

    def test_mode_given_as_text_is_the_mode(self):
        spec = CaputSpec(3, frozenset(), "exact")
        assert spec.mode is HeadMode.EXACT
        assert spec == CaputSpec(3, frozenset(), HeadMode.EXACT)
        images = [p.image for p in enumerate_caput(spec)]
        assert images == [(2, 3, 1), (3, 1, 2)]
        assert count_caput(spec) == len(images) == 2

    @pytest.mark.parametrize("mode", ["bogus", "EXACT", 3, None])
    def test_unknown_mode_is_refused_naming_the_modes(self, mode):
        with pytest.raises(InvariantViolationError, match="loose, exact or setwise"):
            CaputSpec(3, frozenset(), mode)

    def test_fractional_position_is_refused(self):
        with pytest.raises(InvariantViolationError, match="positions of a head.*1.5"):
            CaputSpec(3, frozenset({1.5}))

    def test_float_position_is_not_taken_for_a_whole_one(self):
        with pytest.raises(InvariantViolationError, match="positions of a head.*2.0"):
            CaputSpec(4, frozenset({2.0}), HeadMode.EXACT)

    def test_bool_position_reads_as_its_plain_int(self):
        spec = CaputSpec(3, frozenset({True}))
        assert spec == CaputSpec(3, (True,)) == CaputSpec(3, frozenset({1}))
        assert all(type(i) is int for i in spec.head)
        images = [p.image for p in enumerate_caput(spec)]
        assert images == [(1, 2, 3), (1, 3, 2)]
        assert all(type(i) is int for image in images for i in image)

    def test_text_position_is_refused(self):
        with pytest.raises(InvariantViolationError, match="positions of a head.*'1'"):
            CaputSpec(3, frozenset({"1"}))

    def test_head_that_is_no_collection_is_refused(self):
        with pytest.raises(InvariantViolationError, match="collection of whole numbers, got 5"):
            CaputSpec(3, 5)
        # a mapping would read as its keys alone
        with pytest.raises(InvariantViolationError, match=r"numbers, got \{1: 'a', 3: 'c'\}"):
            CaputSpec(4, {1: "a", 3: "c"})

    def test_first_bad_position_is_named(self):
        with pytest.raises(InvariantViolationError, match="got 2.5$"):
            CaputSpec(5, (1, 2.5, "x"))


class TestCount:
    def test_monadic_loose_head_gives_the_six_rows(self):
        spec = CaputSpec.fixing_symbols(4, "a", HeadMode.LOOSE)
        assert count_caput(spec) == 6

    def test_exact_a_keeps_only_the_two_three_cycles(self):
        spec = CaputSpec.fixing_symbols(4, "a", HeadMode.EXACT)
        assert count_caput(spec) == 2

    def test_setwise_pair_in_s4(self):
        spec = CaputSpec(degree=4, head=frozenset({1, 2}), mode=HeadMode.SETWISE)
        assert count_caput(spec) == 4  # brute force over S_4 says 2! * 2!

    def test_empty_head_is_unconstrained(self):
        for n in (1, 4, 7):
            spec = CaputSpec(degree=n)
            assert count_caput(spec) == math.factorial(n)

    def test_exact_full_head_is_identity_only(self):
        spec = CaputSpec(degree=5, head=frozenset(range(1, 6)), mode=HeadMode.EXACT)
        assert count_caput(spec) == 1

    def test_exact_all_but_one_is_unsatisfiable(self):
        spec = CaputSpec(degree=5, head=frozenset({1, 2, 3, 4}), mode=HeadMode.EXACT)
        assert count_caput(spec) == 0
        assert list(enumerate_caput(spec)) == []

    @pytest.mark.parametrize("mode", list(HeadMode))
    def test_against_filtration_for_all_heads_up_to_s5(self, mode):
        for n in range(1, 6):
            for r in range(n + 1):
                for head in itertools.combinations(range(1, n + 1), r):
                    spec = CaputSpec(degree=n, head=frozenset(head), mode=mode)
                    assert count_caput(spec) == brute_count(n, frozenset(head), mode)

    def test_loose_exact_bridge(self):
        # (n-k)! splits as sum over how many extra points stay fixed
        for n in range(1, 9):
            for k in range(n + 1):
                free = n - k
                total = sum(
                    math.comb(free, j) * derangements(free - j)
                    for j in range(free + 1)
                )
                spec = CaputSpec(degree=n, head=frozenset(range(1, k + 1)))
                assert count_caput(spec) == total

    def test_setwise_dominates_loose(self):
        for n in range(1, 8):
            for k in range(n + 1):
                head = frozenset(range(1, k + 1))
                loose = count_caput(CaputSpec(n, head, HeadMode.LOOSE))
                setwise = count_caput(CaputSpec(n, head, HeadMode.SETWISE))
                assert setwise >= loose
                assert (setwise == loose) == (k <= 1)

    def test_monadic_head_count_is_the_vicinity_count(self):
        from combinatoria.problems import vicinity_variations

        for n in range(1, 10):
            spec = CaputSpec(degree=n, head=frozenset({1}))
            assert count_caput(spec) == vicinity_variations(n) == math.factorial(n - 1)


class TestEnumerate:
    def test_fixed_a_table_rows_in_order(self):
        spec = CaputSpec.fixing_symbols(4, "a")
        rows = [format_one_line(p) for p in enumerate_caput(spec)]
        assert rows == FIXED_A_ROWS

    def test_fixed_a_cycle_type_profile(self):
        spec = CaputSpec.fixing_symbols(4, "a")
        alphas = [cycle_type(p).alpha for p in enumerate_caput(spec)]
        assert alphas.count((4, 0, 0, 0)) == 1
        assert alphas.count((2, 1, 0, 0)) == 3
        assert alphas.count((1, 0, 1, 0)) == 2

    def test_full_head_leaves_the_identity(self):
        spec = CaputSpec(degree=3, head=frozenset({1, 2, 3}))
        assert [p.image for p in enumerate_caput(spec)] == [(1, 2, 3)]

    def test_exact_pair_in_s5(self):
        spec = CaputSpec(degree=5, head=frozenset({1, 2}), mode=HeadMode.EXACT)
        found = [p.image for p in enumerate_caput(spec)]
        assert found == [(1, 2, 4, 5, 3), (1, 2, 5, 3, 4)]
        assert len(found) == derangements(3)

    @pytest.mark.parametrize("mode", list(HeadMode))
    def test_stream_matches_count_and_filter_up_to_s5(self, mode):
        for n in range(1, 6):
            for r in range(n + 1):
                for head in itertools.combinations(range(1, n + 1), r):
                    spec = CaputSpec(degree=n, head=frozenset(head), mode=mode)
                    got = [p.image for p in enumerate_caput(spec)]
                    expected = [
                        image
                        for image in all_perms(n)
                        if satisfies(spec, Permutation(image))
                    ]
                    assert got == expected  # same elements, lex order
                    assert len(got) == count_caput(spec)

    def test_stream_is_strictly_increasing_and_duplicate_free(self):
        spec = CaputSpec(degree=6, head=frozenset({2, 5}), mode=HeadMode.SETWISE)
        images = [p.image for p in enumerate_caput(spec)]
        assert all(a < b for a, b in zip(images, images[1:]))

    def test_streaming_does_not_materialize(self):
        stream = enumerate_caput(CaputSpec(degree=9))
        first = next(stream)
        assert first.image == tuple(range(1, 10))
        second = next(stream)
        assert second.image == (1, 2, 3, 4, 5, 6, 7, 9, 8)
        stream.close()

    def test_ceiling_is_named(self):
        with pytest.raises(EnumerationTooLargeError, match="12"):
            enumerate_caput(CaputSpec(degree=13))

    @pytest.mark.parametrize("mode", list(HeadMode))
    def test_every_head_in_lex_order_up_to_s7(self, mode):
        # covers SETWISE heads of three and more runs, such as {2, 4, 6}
        for n in range(1, 8):
            for r in range(n + 1):
                for head in itertools.combinations(range(1, n + 1), r):
                    spec = CaputSpec(degree=n, head=frozenset(head), mode=mode)
                    got = [p.image for p in enumerate_caput(spec)]
                    assert got == list(brute_images(n, frozenset(head), mode)), (n, head)

    # SETWISE heads of three or more runs: the lead holds two or more
    # positions, and the tail's six positions hold both classes.  The empty
    # head and {1} give EXACT a lead of three positions at n = 9 and two
    # at n = 8, which no head at n <= 7 does.
    SETWISE_RUNS = {
        9: [set(), {1}, {2, 4, 6, 8}, {1, 9}, {3, 4, 8}, {7}, {8}, {2, 5}],
        8: [set(), {1}, {1, 8}, {2, 7}, {3, 5, 6}, {4}],
    }

    @pytest.mark.parametrize("n", SETWISE_RUNS)
    def test_setwise_heads_of_many_runs_in_lex_order(self, n):
        # one pass over S_n serves every head in every mode, with the tests
        # of brute_images
        heads = [frozenset(head) for head in self.SETWISE_RUNS[n]]
        expected = {head: {mode: [] for mode in HeadMode} for head in heads}
        for image in all_perms(n):
            fixed = naive_fixed_points(image)
            for head, kept in expected.items():
                if head <= fixed:
                    kept[HeadMode.LOOSE].append(image)
                if fixed == head:
                    kept[HeadMode.EXACT].append(image)
                if {image[i - 1] for i in head} == head:
                    kept[HeadMode.SETWISE].append(image)
        for head, kept in expected.items():
            for mode, images in kept.items():
                spec = CaputSpec(degree=n, head=head, mode=mode)
                assert [p.image for p in enumerate_caput(spec)] == images, (head, mode)

    def test_exact_stream_does_not_stall_on_rejects(self):
        # A plain fixed-point filter over S_12 in lex order would reject the
        # 11! arrangements that keep 1 in place before its first item.
        start = time.process_time()
        stream = enumerate_caput(CaputSpec(degree=12, mode=HeadMode.EXACT))
        first = [p.image for p in itertools.islice(stream, 2)]
        assert time.process_time() - start < 1.0
        assert first == [
            (2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11),
            (2, 1, 4, 3, 6, 5, 8, 7, 10, 11, 12, 9),
        ]

    def test_setwise_stream_does_not_materialize(self):
        # a one-point head leaves 9! arrangements of the free values
        spec = CaputSpec(degree=10, head=frozenset({1}), mode=HeadMode.SETWISE)
        tracemalloc.start()
        try:
            first = [p.image for p in itertools.islice(enumerate_caput(spec), 2)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == [tuple(range(1, 11)), (1, 2, 3, 4, 5, 6, 7, 8, 10, 9)]
        assert peak < 1_000_000

    # the first two EXACT items of each head at n = 12
    EXACT_FIRSTS = {
        frozenset({1}): [
            (1, 3, 2, 5, 4, 7, 6, 9, 8, 11, 12, 10), (1, 3, 2, 5, 4, 7, 6, 9, 8, 12, 10, 11)
        ],
        frozenset({7}): [
            (2, 1, 4, 3, 6, 5, 7, 9, 8, 11, 12, 10), (2, 1, 4, 3, 6, 5, 7, 9, 8, 12, 10, 11)
        ],
        frozenset({12}): [
            (2, 1, 4, 3, 6, 5, 8, 7, 10, 11, 9, 12), (2, 1, 4, 3, 6, 5, 8, 7, 11, 9, 10, 12)
        ],
        frozenset({6, 7}): [
            (2, 1, 4, 3, 8, 6, 7, 5, 10, 9, 12, 11), (2, 1, 4, 3, 8, 6, 7, 5, 10, 11, 12, 9)
        ],
    }

    @pytest.mark.parametrize("head", [{1}, {7}, {12}, {6, 7}])
    def test_setwise_stream_at_the_ceiling_starts_small_and_fast(self, head):
        # SETWISE holds the table of tail patterns, one tail's images and one
        # batch; EXACT, a lead of up to five positions and one batch
        firsts = {
            HeadMode.SETWISE: [
                tuple(range(1, 13)),
                (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10, 12) if 12 in head
                else (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 11),
            ],
            HeadMode.EXACT: self.EXACT_FIRSTS[frozenset(head)],
        }
        for mode, expected in firsts.items():
            spec = CaputSpec(degree=12, head=frozenset(head), mode=mode)
            start = time.process_time()
            tracemalloc.start()
            try:
                first = [p.image for p in itertools.islice(enumerate_caput(spec), 2)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.process_time() - start < 1.0, mode
            assert peak < 1_000_000, mode
            assert first == expected, mode

    def test_is_a_real_generator(self):
        for mode in HeadMode:
            for head in (frozenset(), frozenset({2}), frozenset({1, 3})):
                stream = enumerate_caput(CaputSpec(degree=4, head=head, mode=mode))
                assert isinstance(stream, types.GeneratorType)


class TestExactKeepMasks:
    """EXACT drops the arrangements of its tail block with a fixed point
    through keep masks shared by every listing (``caput._KEEP``)."""

    def test_every_exact_head_of_s8_is_a_raw_filter(self):
        # one pass over S_8 sorts each image under its set of fixed points,
        # which is the one head whose EXACT listing holds it; the 256 heads
        # reach every keep mask a degree of 8 can ask for
        by_fixed = collections.defaultdict(list)
        for image in all_perms(8):
            by_fixed[frozenset(naive_fixed_points(image))].append(image)
        for k in range(9):
            for head in map(frozenset, itertools.combinations(range(1, 9), k)):
                spec = CaputSpec(degree=8, head=head, mode=HeadMode.EXACT)
                assert list(caput._images(spec)) == by_fixed.get(head, []), head

    def test_exact_listing_runs_no_python_call_per_candidate(self):
        spec = CaputSpec(degree=8, mode=HeadMode.EXACT)
        collections.deque(caput._images(spec), maxlen=0)  # warm the table
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profile)
        try:
            images = list(caput._images(spec))
        finally:
            sys.setprofile(None)
        assert len(images) == derangements(8) == 14_833
        # a Python filter would make one call per candidate, about 31,000
        assert calls < 1_000

    def test_the_table_holds_at_most_two_to_the_w_masks_per_width(self):
        for n in range(1, 10):
            for k in range(n + 1):
                for head in itertools.combinations(range(1, n + 1), k):
                    spec = CaputSpec(degree=n, head=frozenset(head), mode=HeadMode.EXACT)
                    collections.deque(caput._images(spec), maxlen=0)
        widths = collections.Counter(map(len, caput._KEEP))
        assert max(widths) <= caput._TAIL
        for w, masks in widths.items():
            assert masks <= 2**w, w
        assert all(len(keep) == math.factorial(len(own)) for own, keep in caput._KEEP.items())
        held = len(caput._KEEP)
        spec = CaputSpec(degree=9, head=frozenset({4}), mode=HeadMode.EXACT)
        collections.deque(caput._images(spec), maxlen=0)
        assert len(caput._KEEP) == held


class TestDerangements:
    @pytest.mark.parametrize("m,expected", [(0, 1), (1, 0), (2, 1), (3, 2), (4, 9)])
    def test_small_values_match_filtration(self, m, expected):
        assert derangements(m) == expected
        if m >= 1:
            counted = sum(
                1 for image in all_perms(m) if not naive_fixed_points(image)
            )
            assert counted == expected

    def test_both_routes_agree_far_past_the_filter(self):
        for m in range(0, 25):
            assert derangements(m) == derangements_by_inclusion_exclusion(m)

    def test_large_m_without_recursion(self):
        # the second recurrence D(m) = m * D(m-1) + (-1)^m, run independently
        expected = 1
        for m in range(1, 3001):
            expected = m * expected + (-1) ** m
        assert derangements(3000) == expected

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolationError):
            derangements(-1)

    @pytest.mark.parametrize("m", [0, 1, 2, 10, 500])
    def test_recurrence_matches_inclusion_exclusion(self, m):
        assert derangements(m) == derangements_by_inclusion_exclusion(m)

    def test_memory_stays_flat_in_m(self):
        # D(10000) has 35660 digits, some 15 KB; keeping every D(k) up to
        # it takes 71 MB
        tracemalloc.start()
        try:
            derangements(10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestIsCaputOf:
    def test_a_heads_every_row_of_the_table(self):
        for row in ("abcd", "abdc", "acbd", "acdb", "adbc", "adcb"):
            assert is_caput_of({1: "a"}, row)

    def test_empty_sub_is_vacuously_contained(self):
        assert is_caput_of({}, "badc")

    def test_displaced_content_is_not_contained(self):
        assert not is_caput_of({1: "a"}, "badc")

    def test_caput_spec_as_sub(self):
        # the mapping form of the head {1, 3}: a spec is refused, since its
        # mode would be dropped; satisfies tests a spec
        sub = {1: "a", 3: "c"}
        assert is_caput_of(sub, "abcd")
        assert is_caput_of(sub, "adcb")  # a and c both in place
        assert not is_caput_of(sub, "abdc")  # d took c's place
        with pytest.raises(InvariantViolationError, match="must be a mapping .*, got CaputSpec"):
            is_caput_of(CaputSpec.fixing_symbols(4, "ac"), "abcd")

    def test_position_outside_ground_set(self):
        with pytest.raises(GroundSetMismatchError):
            is_caput_of({5: "a"}, "abcd")

    def test_occupant_outside_ground_set(self):
        with pytest.raises(GroundSetMismatchError):
            is_caput_of({1: "e"}, "abcd")

    @pytest.mark.parametrize("pos", [1, True])
    def test_whole_positions_in_any_form(self, pos):
        assert is_caput_of({pos: "a"}, "abc")
        assert not is_caput_of({pos: "b"}, "abc")

    @pytest.mark.parametrize("pos", [1.9, "x", "1.5", float("inf"), None, "1", 1.0])
    def test_position_that_is_no_whole_number_is_named(self, pos):
        message = f"^a head position must be a whole number, got {re.escape(repr(pos))}$"
        with pytest.raises(InvariantViolationError, match=message):
            is_caput_of({pos: "a"}, "abc")

    @pytest.mark.parametrize(
        "sub, whole, message",
        [(5, "abc", "a head to test must be a mapping .*, got 5$"),
         ("3", "abc", "a head to test must be a mapping .*, got '3'$"),
         ({1: "a"}, 5, "^an arrangement must be a collection of symbols, got 5$"),
         (CaputSpec(3, {1}, HeadMode.EXACT), "abc",
          "a head to test must be a mapping .*, got CaputSpec"),
         # a mapping would be read by its keys, the identity 1, 2
         ({1: "a"}, {1: "b", 2: "a"},
          r"^an arrangement must be a collection of symbols, got \{1: 'b', 2: 'a'\}$"),
         # a set lists text in hash order, which changes from run to run
         ({1: "a"}, {"a", "b", "c"}, "^an arrangement must not be a set, got "),
         ({1: 1}, frozenset({2, 1}), r"^an arrangement must not be a set, got frozenset\(")],
    )
    def test_sub_or_whole_of_another_kind_is_named(self, sub, whole, message):
        with pytest.raises(InvariantViolationError, match=message):
            is_caput_of(sub, whole)

    @pytest.mark.parametrize("sub, whole", [({1: True}, [1, 2]), ({1: 1}, [True, 2])])
    def test_bool_symbols_read_as_ints(self, sub, whole):
        # symbols are read as positions are: a bool is its plain int
        assert is_caput_of(sub, whole)

    @pytest.mark.parametrize(
        "sub, whole",
        [({1: 1.0}, "ab"), ({1: "a"}, [1.0, 2]), ({1: "a"}, ["a", None]),
         ({1: "a"}, [1, float("nan")])],
    )
    def test_symbol_that_is_no_whole_number_is_named(self, sub, whole):
        with pytest.raises(InvariantViolationError, match="^a symbol must be a whole number, got"):
            is_caput_of(sub, whole)

    def test_permutation_as_whole(self):
        p = Permutation((2, 1, 3))
        assert is_caput_of({3: 3}, p)
        assert not is_caput_of({1: 1}, p)

    def test_agrees_with_satisfies_on_every_loose_head_up_to_5(self):
        # every head H of 1..n as the mapping {i: i}, against every p of S_n:
        # 2 + 8 + 48 + 384 + 3840 = 4282 cases
        cases = 0
        for n in range(1, 6):
            perms = [Permutation(image) for image in all_perms(n)]
            for k in range(n + 1):
                for head in itertools.combinations(range(1, n + 1), k):
                    spec, sub = CaputSpec(n, head), {i: i for i in head}
                    for p in perms:
                        assert is_caput_of(sub, p) == satisfies(spec, p), (head, p)
                        cases += 1
        assert cases == 4282


class TestSatisfies:
    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            satisfies(CaputSpec(degree=4), Permutation((1, 2, 3)))

    @pytest.mark.parametrize(
        "call, message",
        [(lambda: satisfies("x", Permutation((1, 2))), "a head must be a CaputSpec, got 'x'"),
         (lambda: satisfies(CaputSpec(2), "ab"), "a permutation must be a Permutation, got 'ab'"),
         (lambda: satisfies(CaputSpec(2), (1, 2)),
          r"a permutation must be a Permutation, got \(1, 2\)"),
         (lambda: count_caput(3), "a head must be a CaputSpec, got 3"),
         (lambda: count_caput(frozenset({1})), "a head must be a CaputSpec, got frozenset"),
         (lambda: enumerate_caput("a"), "a head must be a CaputSpec, got 'a'")],
        ids=["satisfies head", "satisfies text", "satisfies tuple", "count", "count set",
             "enumerate"],
    )
    def test_an_argument_of_another_kind_is_named(self, call, message):
        with pytest.raises(InvariantViolationError, match=f"^{message}"):
            call()

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(1, n)),
                st.sampled_from(list(HeadMode)),
                st.permutations(list(range(1, n + 1))),
            )
        )
    )
    def test_enumerated_iff_satisfies(self, case):
        n, head, mode, image = case
        spec = CaputSpec(degree=n, head=frozenset(head), mode=mode)
        p = Permutation(tuple(image))
        in_stream = p.image in {q.image for q in enumerate_caput(spec)}
        assert in_stream == satisfies(spec, p)
