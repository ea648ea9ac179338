import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combinatoria.caput import CaputSpec
from combinatoria.errors import (
    CEILINGS,
    DegreeMismatchError,
    EnumerationTooLargeError,
    InvalidDegreeError,
    InvariantViolationError,
)
from combinatoria.partitions import Partition, partition_to_cycle_type
from combinatoria.perm import (
    Cycle,
    CycleType,
    Permutation,
    compose,
    cycle_decomposition,
    cycle_type,
    fixed_points,
    format_cycles,
    format_one_line,
    from_cycles,
    identity,
    inverse,
    parse_cycles,
    parse_one_line,
    parse_permutation,
)

from conftest import all_perms, as_mapping, conjugate, mapping_compose

CYCLE_DEGREE = CEILINGS["cycle degree"].limit

perms = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda seq: Permutation(tuple(seq)))


class TestConstruction:
    def test_rejects_degree_zero(self):
        with pytest.raises(InvalidDegreeError):
            Permutation(())
        with pytest.raises(InvalidDegreeError):
            identity(0)

    @pytest.mark.parametrize(
        "image", [(1, 1), (2, 3), (0, 1), (1, 2, 4), 5, (1, "a"), (2.0, 1), {1: 2, 2: 1}]
    )
    def test_rejects_non_bijections(self, image):
        with pytest.raises(InvariantViolationError, match="one-line form"):
            Permutation(image)

    @pytest.mark.parametrize(
        "image, message",
        [((1, float("nan")), "each of the points of a one-line form must be a whole number, got nan"),
         ((True, 3), "one-line form [1, 3] is not a bijection of 1..2")],
    )
    def test_points_are_read_as_whole_numbers(self, image, message):
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            Permutation(image)

    def test_bool_points_read_as_ints(self):
        p = Permutation((True, 2))
        assert p == Permutation((1, 2)) and str(p) == "[1,2]"
        assert all(type(x) is int for x in p.image)
        assert str(Cycle((True, 2))) == "(12)"

    def test_image_is_immutable_value(self):
        p = Permutation((2, 1))
        assert p == Permutation((2, 1))
        assert hash(p) == hash(Permutation((2, 1)))


class TestIdentity:
    def test_identity_3_is_the_all_fixed_element(self):
        assert format_cycles(identity(3)) == "(1)(2)(3)"

    def test_identity_1_is_the_sole_element_of_s1(self):
        assert list(all_perms(1)) == [identity(1).image]

    def test_two_sided_unit_on_all_of_s4(self):
        e = identity(4)
        for image in all_perms(4):
            p = Permutation(image)
            assert compose(e, p) == p
            assert compose(p, e) == p


class TestCompose:
    def test_transposition_product_from_s3_table(self):
        # (12) after (13), right-to-left, checked against a dict-built table
        p = parse_cycles("(12)(3)")
        q = parse_cycles("(13)(2)")
        expected = mapping_compose(as_mapping(p), as_mapping(q))
        r = compose(p, q)
        assert as_mapping(r) == expected
        assert format_cycles(r) == "(132)"

    def test_three_cycle_squared(self):
        p = parse_cycles("(123)")
        assert format_cycles(compose(p, p)) == "(132)"

    def test_inverse_cancels_everywhere_in_s5(self):
        e = identity(5)
        for image in all_perms(5):
            p = Permutation(image)
            assert compose(p, inverse(p)) == e
            assert compose(inverse(p), p) == e

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            compose(identity(3), identity(4))

    def test_group_laws_exhaustively_on_s4(self):
        elements = [Permutation(image) for image in all_perms(4)]
        e = identity(4)
        assert e in elements
        for p in elements:
            assert compose(p, inverse(p)) == e == compose(inverse(p), p)
        for p, q, r in itertools.product(elements, repeat=3):
            assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestInverse:
    def test_inverse_of_three_cycle(self):
        p = parse_cycles("(123)")
        # brute-force: the unique q in S_3 with pq = identity
        candidates = [
            Permutation(image)
            for image in all_perms(3)
            if compose(p, Permutation(image)) == identity(3)
        ]
        assert candidates == [inverse(p)]
        assert format_cycles(inverse(p)) == "(132)"

    def test_identity_is_self_inverse(self):
        assert inverse(identity(6)) == identity(6)

    def test_every_transposition_in_s5_is_self_inverse(self):
        for i, j in itertools.combinations(range(1, 6), 2):
            # the 1-cycle of each other point, 5 included, sets the degree
            t = from_cycles([(i, j), *((k,) for k in range(1, 6) if k not in (i, j))])
            assert t.degree == 5
            assert inverse(t) == t


class TestCycles:
    def test_worked_s6_example(self):
        p = parse_one_line("[1,4,3,6,5,2]")
        assert format_cycles(p) == "(1)(3)(5)(246)"
        t = cycle_type(p)
        assert t.alpha == (3, 0, 1, 0, 0, 0)
        assert sum(i * a for i, a in enumerate(t.alpha, start=1)) == 6

    def test_identity_decomposes_into_fixed_points(self):
        cycles = cycle_decomposition(identity(4))
        assert [c.points for c in cycles] == [(1,), (2,), (3,), (4,)]

    def test_three_cycle_has_no_one_cycles(self):
        cycles = cycle_decomposition(parse_cycles("(123)"))
        assert len(cycles) == 1
        assert len(cycles[0].points) == 3

    def test_decomposition_ordered_by_smallest_point(self):
        p = parse_one_line("[1,4,3,6,5,2]")
        smallest = [min(c.points) for c in cycle_decomposition(p)]
        assert smallest == sorted(smallest)

    def test_round_trip_over_all_of_s6(self):
        for image in all_perms(6):
            p = Permutation(image)
            assert from_cycles(cycle_decomposition(p)) == p

    def test_cycle_canonical_rotation(self):
        assert Cycle((4, 6, 2)).points == (2, 4, 6)

    def test_cycle_rejects_repeats(self):
        with pytest.raises(InvariantViolationError):
            Cycle((1, 2, 1))

    @pytest.mark.parametrize(
        "points", [5, ("a", "b"), (1.5, 2), (2, float("nan")), {2: 1, 1: 2}]
    )
    def test_cycle_refuses_what_is_no_collection_of_numbers(self, points):
        message = "the points of a cycle must be a (collection of whole numbers|whole number), got"
        with pytest.raises(InvariantViolationError, match=message):
            Cycle(points)

    def test_from_cycles_rejects_overlap(self):
        with pytest.raises(InvariantViolationError):
            from_cycles([(1, 2), (2, 3)])

    @pytest.mark.parametrize(
        "cycles, message",
        [([(5, 0), (-1, 2)], "point 0 outside 1..5"),
         ([(1, 2), (3, 0), (4,)], "point 0 outside 1..4"),
         ([Cycle((2, 7)), (0,)], "point 0 outside 1..7"),
         ([(2, float("nan"))], "each of the points of a cycle must be a whole number, got nan"),
         (5, "cycles must be a collection of cycles, got 5"),
         ([5], "the points of a cycle must be a collection of whole numbers, got 5"),
         ([(1, "a")], "each of the points of a cycle must be a whole number, got 'a'"),
         ([(), (1, 2)], "a cycle needs at least one point"),
         ([(1.0, 2)], "each of the points of a cycle must be a whole number, got 1.0"),
         ([{1: 2}], "the points of a cycle must be a collection of whole numbers, got {1: 2}"),
         ({(1, 2): 1}, "cycles must be a collection of cycles, got {(1, 2): 1}"),
         ([(2, False)], "point 0 outside 1..2")],
    )
    def test_from_cycles_names_the_first_listed_point_outside_the_degree(self, cycles, message):
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            from_cycles(cycles)

    def test_from_cycles_refuses_degree_zero_before_reading_points(self):
        # the largest point is 0, so the degree is refused before -1 is named
        with pytest.raises(InvalidDegreeError, match="^degree 0 is not admitted"):
            from_cycles([(0, -1)])


def reference_cycles(image: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles through plain dict lookups: each from its smallest point, ordered
    by smallest point."""
    successor = dict(enumerate(image, start=1))
    cycles = []
    while successor:
        start = min(successor)
        cycle = [start]
        x = successor.pop(start)
        while x != start:
            cycle.append(x)
            x = successor.pop(x)
        cycles.append(tuple(cycle))
    return cycles


def reference_text(image: tuple[int, ...]) -> str:
    """Short cycles first, ties by smallest point; a cycle holding a point
    above 9 comma-separated, a lone such point with a trailing comma."""
    out = []
    for cycle in sorted(reference_cycles(image), key=lambda c: (len(c), c[0])):
        if max(cycle) > 9:
            out.append("(" + ",".join(map(str, cycle)) + ("," if len(cycle) == 1 else "") + ")")
        else:
            out.append("(" + "".join(map(str, cycle)) + ")")
    return "".join(out)


def sampled_images(degrees: range, per_degree: int, seed: int):
    rng = random.Random(seed)
    for n in degrees:
        for _ in range(per_degree):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            yield tuple(image)


class TestCycleReaders:
    """The three cycle readers against a reference walk of their own, over
    all of S_1..S_7 and seeded samples past degree 9, where the text turns to
    the comma form."""

    IMAGES = [
        *itertools.chain.from_iterable(all_perms(n) for n in range(1, 8)),
        *sampled_images(range(10, 61), 20, seed=7),
    ]

    def test_every_reader_agrees_with_the_reference_walk(self):
        for image in self.IMAGES:
            p = Permutation(image)
            cycles = reference_cycles(image)
            assert [c.points for c in cycle_decomposition(p)] == cycles, image
            alpha = [0] * len(image)
            for cycle in cycles:
                alpha[len(cycle) - 1] += 1
            assert cycle_type(p).alpha == tuple(alpha), image
            assert format_cycles(p) == reference_text(image), image

    def test_equal_lengths_keep_the_order_of_smallest_points(self):
        # by smallest point, not by text: "(10,11)" sorts before "(9,12)"
        p = parse_cycles("(10 11)(9 12)(1)(3 2)(6 13 7)(4 8 5)")
        assert format_cycles(p) == "(1)(23)(9,12)(10,11)(485)(6,13,7)"


class TestCycleType:
    def test_alpha_weighted_sum_is_degree_up_to_s7(self):
        for n in range(1, 8):
            for image in all_perms(n):
                t = cycle_type(Permutation(image))
                assert sum(i * a for i, a in enumerate(t.alpha, start=1)) == n

    def test_identity_type(self):
        assert cycle_type(identity(5)).alpha == (5, 0, 0, 0, 0)

    def test_transposition_with_fixed_point(self):
        t = cycle_type(parse_cycles("(1)(23)"))
        assert t.alpha == (1, 1, 0)

    def test_malformed_cycle_type_rejected(self):
        with pytest.raises(InvariantViolationError):
            CycleType(3, (1, 0, 1))  # weighs 1 + 3 = 4, not 3

    @pytest.mark.parametrize(
        "degree,alpha,bad",
        [
            (3, (3.0, 0, 0), "3.0"),
            (2, (True, 0.5), "0.5"),
            (2, (0, Fraction(1)), "Fraction"),
            (3, ("a", 0, 0), "'a'"),
            (3, 5, "5"),
            (2, {0: 1, 1: 0}, "got {0: 1, 1: 0}"),
        ],
    )
    def test_counts_that_are_not_whole_are_refused(self, degree, alpha, bad):
        with pytest.raises(InvariantViolationError, match=f"counts of a cycle type.*{bad}"):
            CycleType(degree, alpha)

    def test_int_like_counts_are_read_as_ints(self):
        class One:
            def __index__(self):
                return 1

        t = CycleType(3, (One(), One(), 0))
        assert t.alpha == (1, 1, 0) and all(type(a) is int for a in t.alpha)
        assert str(t) == "α₁=1 α₂=1"
        t = CycleType(1, (True,))
        assert t.alpha == (1,) and type(t.alpha[0]) is int
        assert str(t) == "α₁=1"

    def test_cycle_lengths_that_are_not_whole_are_refused(self):
        # the parts 2 and 1.0 weigh up to a degree of 3.0, which is refused
        message = "degree of a permutation must be a whole number, got 3.0$"
        with pytest.raises(InvariantViolationError, match=message):
            partition_to_cycle_type(Partition((2, 1.0)))

    def test_sparse_rendering(self):
        p = parse_one_line("[1,4,3,6,5,2]")
        assert str(cycle_type(p)) == "α₁=3 α₃=1"


class TestFixedPoints:
    def test_table_row_with_only_a_fixed(self):
        # row (4) of the classical fixed-a table: a stays, b c d cycle
        assert fixed_points(parse_one_line("[1,3,4,2]")) == {1}

    def test_identity_fixes_everything(self):
        assert fixed_points(identity(5)) == {1, 2, 3, 4, 5}

    def test_all_24_five_cycles_fix_nothing(self):
        five_cycles = [
            from_cycles([(1,) + rest])
            for rest in itertools.permutations((2, 3, 4, 5))
        ]
        assert len(five_cycles) == 24
        for p in five_cycles:
            assert fixed_points(p) == frozenset()

    def test_size_matches_alpha_one_over_s6(self):
        for image in all_perms(6):
            p = Permutation(image)
            assert len(fixed_points(p)) == cycle_type(p).alpha[0]


class TestTextFormats:
    def test_one_line_bit_exact(self):
        text = "[1,4,3,6,5,2]"
        assert format_one_line(parse_one_line(text)) == text

    def test_cycle_form_bit_exact(self):
        text = "(1)(3)(5)(246)"
        assert format_cycles(parse_cycles(text)) == text

    def test_either_form_accepted(self):
        assert parse_permutation("[2,3,1]") == parse_permutation("(123)")

    def test_degree_ten_uses_commas(self):
        p = from_cycles([(2, 4, 10)])
        assert p.degree == 10
        text = format_cycles(p)
        assert "(2,4,10)" in text
        assert parse_cycles(text) == p

    @pytest.mark.parametrize(
        "bad", ["", "[]", "1,2,3", "(12", "[1,x]", "()", "(1,x)", "(2 y)"]
    )
    def test_unreadable_input_raises(self, bad):
        with pytest.raises((InvariantViolationError, InvalidDegreeError)):
            parse_permutation(bad)

    @pytest.mark.parametrize(
        "text",
        ["[ 2 ,\t1 ]", "[2,,1]", "[2,1,]", " [\t2, 1] ", "[\x1c2,1\x1f]", "[٢,١]", "[+2,1]"],
    )
    def test_one_line_items_are_stripped_and_empty_items_skipped(self, text):
        assert parse_one_line(text).image == (2, 1)

    @pytest.mark.parametrize(
        "text, error",
        [("[2, 1.0]", "non-integer point"), ("[2, 1 3]", "non-integer point"),
         ("[ , \t]", "no degree"), ("[²,1]", "non-integer point")],
    )
    def test_one_line_item_that_is_no_integer_is_refused(self, text, error):
        with pytest.raises((InvariantViolationError, InvalidDegreeError), match=error):
            parse_one_line(text)

    def test_cycle_text_past_the_degree_ceiling_is_refused(self):
        assert parse_cycles(f"(1 {CYCLE_DEGREE})").degree == CYCLE_DEGREE
        with pytest.raises(EnumerationTooLargeError, match=str(CYCLE_DEGREE)):
            parse_cycles(f"(1 {CYCLE_DEGREE + 1})")
        with pytest.raises(EnumerationTooLargeError, match=str(CYCLE_DEGREE)):
            parse_cycles("(1 99999999999)")
        with pytest.raises(EnumerationTooLargeError, match=str(CYCLE_DEGREE)):
            from_cycles([(1, 2), (10**12,)])


class TestSymbols:
    """Points are numbers; the letters a..z that name them in a head are read
    and written by ``caput``, through its public paths."""

    def test_letters_round_trip(self):
        assert CaputSpec.fixing_symbols(4, "d").head_contents() == {4: "d"}
        assert CaputSpec.fixing_symbols(12, ["12"]).head == {12}

    def test_unknown_symbol(self):
        for symbol in ("?", "ab", "", "1.0", "-1"):
            message = f"^unknown symbol {re.escape(repr(symbol))}$"
            with pytest.raises(InvariantViolationError, match=message):
                CaputSpec.fixing_symbols(4, [symbol])
            with pytest.raises(InvariantViolationError, match=message):
                CaputSpec.parse_head(4, f"1={symbol}")
        # a symbol that is no text is read as a number, as a point is
        assert CaputSpec.fixing_symbols(5, [5]).head == {5}

    @pytest.mark.parametrize(
        "read, what",
        [(identity(2), "a point"), (lambda s: CaputSpec.fixing_symbols(2, [s]), "a symbol")],
        ids=["call", "symbol"],
    )
    @pytest.mark.parametrize("point", [1.0, float("nan"), {1: 2}])
    def test_a_point_that_is_not_whole_is_refused(self, read, what, point):
        message = f"^{what} must be a whole number, got {re.escape(repr(point))}$"
        with pytest.raises(InvariantViolationError, match=message):
            read(point)


class TestProperties:
    @given(perms)
    def test_parse_format_round_trip(self, p):
        assert parse_one_line(format_one_line(p)) == p
        assert parse_cycles(format_cycles(p)) == p

    @given(st.integers(min_value=10, max_value=60).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(lambda seq: Permutation(tuple(seq))))
    def test_cycle_text_round_trip_past_degree_nine(self, p):
        comma = format_cycles(p)
        # points spaced apart; a lone point above 9 keeps its comma, "(13,)"
        space = comma.replace(",", " ").replace(" )", ",)")
        assert parse_cycles(comma) == p
        assert parse_cycles(space) == p

    @given(perms)
    def test_inverse_involution(self, p):
        assert inverse(inverse(p)) == p

    @given(st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(*(
            st.permutations(list(range(1, n + 1))) for _ in range(3)
        ))
    ))
    def test_associativity(self, images):
        p, q, r = (Permutation(tuple(img)) for img in images)
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.permutations(list(range(1, n + 1))),
        )
    ))
    def test_conjugation_preserves_cycle_type(self, images):
        g, p = (Permutation(tuple(img)) for img in images)
        assert cycle_type(conjugate(g, p)) == cycle_type(p)
