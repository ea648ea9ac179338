"""Every size ceiling refuses the same way: one named error, whatever the size.

A request one past the ceiling and a request of 10**5000, an integer too long
for the default int-to-str limit, must both end in EnumerationTooLargeError
whose message names the ceiling and what still works past it.  Through the
CLI, the count ceilings end in exit 2 and one error line.  The errors that are
not ceilings hold at 10**5000 too: a caller's value that cannot be printed is
described in the message instead.
"""
import contextlib
import io
import itertools
import math

import pytest

from combinatoria import caput, genealogy, oracle, partitions, perm, problems
from combinatoria.caput import CaputSpec, HeadMode
from combinatoria.cli import main
from combinatoria.errors import (
    CEILINGS,
    CombinatoriaError,
    EnumerationTooLargeError,
    InvariantViolationError,
    shown,
)

HUGE = 10**5000

FACTORIAL = CEILINGS["factorial count"].limit
DERANGEMENT = CEILINGS["derangement count"].limit
POWER_OF_TWO = CEILINGS["power-of-two count"].limit
BINOMIAL = CEILINGS["binomial count"].limit
DEGREE = CEILINGS["permutation degree"].limit

# (guard, ceiling, the name of what still works past it)
GUARDS = {
    "enumerate_partitions": (
        partitions.enumerate_partitions,
        partitions.DEFAULT_ENUMERATION_CEILING,
        "count_partitions",
    ),
    "cycle_types_of": (
        partitions.cycle_types_of,
        partitions.DEFAULT_ENUMERATION_CEILING,
        "count_partitions",
    ),
    "count_partitions": (
        partitions.count_partitions, partitions.COUNTING_CEILING, "two_part_count"
    ),
    "enumerate_caput": (
        lambda n: caput.enumerate_caput(CaputSpec(degree=n)),
        caput.DEFAULT_ENUMERATION_CEILING,
        "count_caput",
    ),
    "coordinates": (genealogy.coordinates, genealogy.COORDINATE_CEILING, "personae_count"),
    "vicinity_classes": (
        problems.vicinity_classes, problems.VICINITY_CLASS_CEILING, "vicinity_variations"
    ),
    "enumerate_sn": (lambda n: next(oracle.enumerate_sn(n)), oracle.SN_CEILING, "closed form"),
    "cycle_type_census": (oracle.cycle_type_census, oracle.SN_CEILING, "closed form"),
    "rotation_class_census": (oracle.rotation_class_census, oracle.SN_CEILING, "closed form"),
    "count_derangements_by_filter": (
        oracle.count_derangements_by_filter, oracle.SN_CEILING, "closed form"
    ),
    "verify_all": (oracle.verify_all, 8, "max_n"),
    "count_partitions_by_enumeration": (
        oracle.count_partitions_by_enumeration,
        CEILINGS["partition walk"].limit,
        "count_partitions",
    ),
    "count_two_part_by_enumeration": (
        oracle.count_two_part_by_enumeration, CEILINGS["pair listing"].limit, "two_part_count"
    ),
    "derangements_by_inclusion_exclusion": (
        caput.derangements_by_inclusion_exclusion,
        CEILINGS["inclusion-exclusion sum"].limit,
        "derangements",
    ),
    "from_cycles": (lambda n: perm.from_cycles([(1, n)]), perm.DEGREE_CEILING, "parse_one_line"),
    "from_cycles degree": (
        lambda n: perm.from_cycles([(1, 2)], degree=n), perm.DEGREE_CEILING, "parse_one_line"
    ),
    # each would allocate by the degree before any other check
    "identity": (perm.identity, DEGREE, "a smaller degree"),
    "from_cycle_lengths": (
        lambda n: perm.CycleType.from_cycle_lengths(n, []), DEGREE, "a smaller degree"
    ),
    "partition_to_cycle_type": (
        lambda n: partitions.partition_to_cycle_type(partitions.Partition((n,))),
        DEGREE,
        "a smaller degree",
    ),
    # the counts: each guard is called with the argument of its factorial,
    # derangement number, power of two or binomial
    "count_caput loose": (
        lambda m: caput.count_caput(CaputSpec(degree=m)), FACTORIAL, "a smaller m"
    ),
    "count_caput setwise": (
        lambda m: caput.count_caput(CaputSpec(degree=m + 1, head={1}, mode=HeadMode.SETWISE)),
        FACTORIAL,
        "a smaller m",
    ),
    "count_caput exact": (
        lambda m: caput.count_caput(CaputSpec(degree=m, mode=HeadMode.EXACT)),
        DERANGEMENT,
        "a smaller m",
    ),
    "derangements": (caput.derangements, DERANGEMENT, "a smaller m"),
    "variations_of_order": (problems.variations_of_order, FACTORIAL, "a smaller m"),
    "vicinity_variations": (
        lambda m: problems.vicinity_variations(m + 1), FACTORIAL, "a smaller m"
    ),
    "problem7_product": (lambda m: problems.problem7_product(m + 2, 2), FACTORIAL, "a smaller m"),
    "solve 4": (lambda m: problems.solve(4, m), FACTORIAL, "a smaller m"),
    "solve 5": (lambda m: problems.solve(5, m + 1), FACTORIAL, "a smaller m"),
    "solve 7": (lambda m: problems.solve(7, m + 3, 3), FACTORIAL, "a smaller m"),
    "personae_count": (genealogy.personae_count, POWER_OF_TWO, "a smaller n"),
    "complexiones_simpliciter": (
        problems.complexiones_simpliciter, POWER_OF_TWO, "a smaller n"
    ),
    "complexions": (lambda n: problems.complexions(n, 2), BINOMIAL, "a smaller n"),
}


@pytest.mark.parametrize("name", GUARDS)
@pytest.mark.parametrize("past", ["ceiling + 1", "10**5000"])
def test_refusal_names_the_ceiling_and_the_fallback(name, past):
    guard, ceiling, fallback = GUARDS[name]
    size = ceiling + 1 if past == "ceiling + 1" else HUGE
    with pytest.raises(EnumerationTooLargeError) as refused:
        guard(size)
    message = str(refused.value)
    assert str(ceiling) in message
    assert fallback in message


# (argv before the size, ceiling, fallback); the size is the last argument
CLI_GUARDS = {
    "caput count": (["caput", "count", "--n"], FACTORIAL, "a smaller m"),
    "caput count exact": (
        ["caput", "count", "--mode", "exact", "--n"], DERANGEMENT, "a smaller m"
    ),
    "problems solve 4": (["problems", "solve", "--id", "4", "--n"], FACTORIAL, "a smaller m"),
    "problems solve 7": (
        ["problems", "solve", "--id", "7", "--k", "0", "--n"], FACTORIAL, "a smaller m"
    ),
    "problems solve simpliciter": (
        ["problems", "solve", "--id", "simpliciter", "--n"], POWER_OF_TWO, "a smaller n"
    ),
    "problems solve 1": (
        ["problems", "solve", "--id", "1", "--k", "2", "--n"], BINOMIAL, "a smaller n"
    ),
    "genealogy personae": (["genealogy", "personae", "--gradus"], POWER_OF_TWO, "a smaller n"),
}


@pytest.mark.parametrize("name", CLI_GUARDS)
@pytest.mark.parametrize("past", ["ceiling + 1", "10**4000"])
def test_cli_refuses_a_count_in_one_line(name, past):
    # 10**4000 is short enough for argparse to read under the int-to-str
    # digit limit; longer --n text is refused as an invalid int before any row.
    argv, ceiling, fallback = CLI_GUARDS[name]
    size = ceiling + 1 if past == "ceiling + 1" else 10**4000
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(size), "--format", "json"])
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("combinatoria: error:")
    assert str(ceiling) in lines[0] and fallback in lines[0]


REDUCTION_HEADS = CEILINGS["reduction heads"].limit
# the first n whose C(n, 2) heads are past the ceiling: C(6326, 2) = 20,005,975
PAST_HEADS = next(n for n in itertools.count(2) if math.comb(n, 2) > REDUCTION_HEADS)


def test_reduction_refuses_to_list_heads_past_the_ceiling():
    assert PAST_HEADS == 6326
    with pytest.raises(EnumerationTooLargeError) as refused:
        problems.reduce_to_caput(1, PAST_HEADS, 2)
    assert str(REDUCTION_HEADS) in str(refused.value)
    assert "problems solve" in str(refused.value)


@pytest.mark.parametrize("n, k", [(PAST_HEADS, 2), (100_000, 3)])
def test_cli_refuses_a_reduction_past_the_heads_ceiling(n, k):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["problems", "reduce", "--id", "1", "--n", str(n), "--k", str(k)])
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("combinatoria: error:")
    assert str(REDUCTION_HEADS) in lines[0] and "problems solve" in lines[0]


# name: (a call with a printable value, its message, the call with HUGE there)
MESSAGE_SITES = {
    "Permutation": (
        lambda: perm.Permutation((1, 3)),
        "one-line form [1, 3] is not a bijection of 1..2",
        lambda: perm.Permutation((1, HUGE)),
    ),
    "Permutation.__call__": (
        lambda: perm.Permutation((1, 2))(3),
        "point 3 outside 1..2",
        lambda: perm.Permutation((1, 2))(HUGE),
    ),
    "Cycle": (
        lambda: perm.Cycle((2, 2)), "cycle (2, 2) repeats a point", lambda: perm.Cycle((HUGE, HUGE))
    ),
    "Cycle non-positive": (
        lambda: perm.Cycle((0, 2)),
        "cycle (0, 2) contains a non-positive point",
        lambda: perm.Cycle((-HUGE, 2)),
    ),
    "CycleType": (
        lambda: perm.CycleType(2, (2, 1)),
        "sum of i*alpha_i is 4, expected the degree 2",
        lambda: perm.CycleType(2, (HUGE, 0)),
    ),
    "CycleType degree": (
        lambda: perm.CycleType(3, (1,)),
        "alpha must be 3 non-negative counts, got (1,)",
        lambda: perm.CycleType(HUGE, (1,)),
    ),
    "CycleType.from_cycle_lengths": (
        lambda: perm.CycleType.from_cycle_lengths(2, [3]),
        "cycle length 3 outside 1..2",
        lambda: perm.CycleType.from_cycle_lengths(2, [HUGE]),
    ),
    "from_cycles point": (
        lambda: perm.from_cycles([(1, 7)], degree=5),
        "point 7 outside 1..5",
        lambda: perm.from_cycles([(1, HUGE)], degree=5),
    ),
    "point_to_symbol": (
        lambda: perm.point_to_symbol(27),
        "no letter for point 27; use numbers",
        lambda: perm.point_to_symbol(HUGE),
    ),
    "Partition": (
        lambda: partitions.Partition((1, 2)),
        "parts must be non-increasing positives: (1, 2)",
        lambda: partitions.Partition((1, HUGE)),
    ),
    "CaputSpec": (
        lambda: CaputSpec(3, frozenset({4, 0})),
        "head positions [0, 4] outside 1..3",
        lambda: CaputSpec(3, frozenset({HUGE})),
    ),
    "satisfies": (
        lambda: caput.satisfies(CaputSpec(2), perm.Permutation((1,))),
        "permutation of degree 1 against a head over 1..2",
        lambda: caput.satisfies(CaputSpec(HUGE), perm.Permutation((1,))),
    ),
    "is_caput_of position": (
        lambda: caput.is_caput_of({4: "a"}, "abc"),
        "position 4 outside 1..3",
        lambda: caput.is_caput_of({HUGE: "a"}, "abc"),
    ),
    "is_caput_of occupant": (
        lambda: caput.is_caput_of({1: 4}, "abc"),
        "occupant 4 is not drawn from the arrangement's symbols",
        lambda: caput.is_caput_of({1: HUGE}, "abc"),
    ),
    "is_caput_of arrangement": (
        lambda: caput.is_caput_of({1: "a"}, [1, 3]),
        "arrangement [1, 3] is not a rearrangement of a reference alphabet",
        lambda: caput.is_caput_of({1: "a"}, [1, HUGE]),
    ),
    "problem7_product": (
        lambda: problems.problem7_product(3, 4),
        "head size 4 outside 0..3",
        lambda: problems.problem7_product(3, HUGE),
    ),
    "solve": (
        lambda: problems.solve(13, 3),
        "unknown problem id 13; use 1..12 or 'simpliciter'",
        lambda: problems.solve(HUGE, 3),
    ),
    "ProblemResult": (
        lambda: problems.ProblemResult(1, {}, 2, witnesses=()),
        "0 witnesses against count 2",
        lambda: problems.ProblemResult(1, {}, HUGE, witnesses=()),
    ),
}


# sizes that are not whole numbers, each read through operator.index
NOT_WHOLE = {
    "personae_count": lambda: genealogy.personae_count(1.5),
    "two_part_count": lambda: partitions.two_part_count(5.0),
    "count_partitions": lambda: partitions.count_partitions(3.0),
    "enumerate_partitions": lambda: partitions.enumerate_partitions(3.0),
    "coordinates": lambda: genealogy.coordinates(2.0),
    "derangements": lambda: caput.derangements(2.5),
    "identity": lambda: perm.identity(2.0),
    "vicinity_classes": lambda: problems.vicinity_classes(3.0),
    "complexions": lambda: problems.complexions(4.0, 2),
    "verify_all": lambda: oracle.verify_all(1.5),
    "count_caput": lambda: caput.count_caput(CaputSpec(3.5)),
}


@pytest.mark.parametrize("name", NOT_WHOLE)
def test_a_size_that_is_not_a_whole_number_is_refused_by_name(name):
    with pytest.raises(InvariantViolationError, match=r"must be a whole number, got \d\.\d$"):
        NOT_WHOLE[name]()


def test_whole_number_message_names_the_request():
    with pytest.raises(InvariantViolationError) as refused:
        partitions.count_partitions(3.0)
    assert str(refused.value) == "the n of a partition count must be a whole number, got 3.0"


def test_bools_read_as_zero_and_one():
    assert partitions.two_part_count(True) == 0
    assert partitions.count_partitions(True) == 1
    assert genealogy.personae_count(False) == 1


@pytest.mark.parametrize("name", MESSAGE_SITES)
def test_messages_print_small_values_and_describe_huge_ones(name):
    small, message, huge = MESSAGE_SITES[name]
    with pytest.raises(CombinatoriaError) as refused:
        small()
    assert str(refused.value) == message
    with pytest.raises(CombinatoriaError) as refused:
        huge()
    assert "digits>" in str(refused.value) or "too long to print>" in str(refused.value)


def test_shown_is_repr_for_printable_values():
    for value in (7, -3, (1, 2), [3, 1], "a", None, frozenset({2})):
        assert shown(value) == repr(value)
    assert shown(HUGE) == "<an int of about 5001 digits>"
    assert shown((1, HUGE)) == "<a tuple holding an int too long to print>"
