"""Every size ceiling refuses the same way: one named error, whatever the size.

A request one past the ceiling and a request of 10**5000, an integer too long
for the default int-to-str limit, must both end in EnumerationTooLargeError
whose message names the ceiling and what still works past it.  Through the
CLI, the count ceilings end in exit 2 and one error line.  The errors that are
not ceilings hold at 10**5000 too: a caller's value that cannot be printed is
described in the message instead.
"""
import contextlib
import inspect
import io
import itertools
import math
import os
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

import combinatoria
from combinatoria import caput, genealogy, oracle, partitions, perm, problems
from combinatoria.caput import CaputSpec, HeadMode
from combinatoria.cli import main
from combinatoria.errors import (
    CEILINGS,
    CombinatoriaError,
    EnumerationTooLargeError,
    InvalidDegreeError,
    InvariantViolationError,
    shown,
)

HUGE = 10**5000

FACTORIAL = CEILINGS["factorial count"].limit
DERANGEMENT = CEILINGS["derangement count"].limit
POWER_OF_TWO = CEILINGS["power-of-two count"].limit
BINOMIAL = CEILINGS["binomial count"].limit
SIMPLICITER = problems.SIMPLICITER
DEGREE = CEILINGS["permutation degree"].limit
CYCLE_DEGREE = CEILINGS["cycle degree"].limit
PARTITION_LISTING = CEILINGS["partition listing"].limit
S_N = CEILINGS["S_n walk"].limit

# (guard, ceiling, the name of what still works past it)
GUARDS = {
    "enumerate_partitions": (
        partitions.enumerate_partitions, PARTITION_LISTING, "count_partitions"
    ),
    "cycle_types_of": (
        partitions.cycle_types_of, PARTITION_LISTING, "count_partitions"
    ),
    "count_partitions": (
        partitions.count_partitions, CEILINGS["partition count"].limit, "two_part_count"
    ),
    "enumerate_caput": (
        lambda n: caput.enumerate_caput(CaputSpec(degree=n)),
        CEILINGS["head enumeration"].limit,
        "count_caput",
    ),
    "coordinates": (
        genealogy.coordinates, CEILINGS["coordinate listing"].limit, "personae_count"
    ),
    "vicinity_classes": (
        problems.vicinity_classes, CEILINGS["vicinity listing"].limit, "vicinity_variations"
    ),
    "cycle_type_census": (oracle.cycle_type_census, S_N, "closed form"),
    "rotation_class_census": (oracle.rotation_class_census, S_N, "closed form"),
    "count_derangements_by_filter": (oracle.count_derangements_by_filter, S_N, "closed form"),
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
    "from_cycles": (lambda n: perm.from_cycles([(1, n)]), CYCLE_DEGREE, "parse_one_line"),
    # the degree named by a 1-cycle alone
    "from_cycles degree": (
        lambda n: perm.from_cycles([(1, 2), (n,)]), CYCLE_DEGREE, "parse_one_line"
    ),
    # each would allocate by the degree before any other check
    "identity": (perm.identity, DEGREE, "a smaller degree"),
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


WITNESS_POINTS = CEILINGS["witness points"].limit

# (problem id, n, k) whose witnesses hold one point past the row: n points
# in problems 4 and 5, k in problems 1-3
PAST_WITNESS = {
    "problem 4": (4, WITNESS_POINTS + 1, None),
    "problem 5": (5, WITNESS_POINTS + 1, None),
    "problem 1": (1, 2 * WITNESS_POINTS, WITNESS_POINTS + 1),
    "problem 2": (2, WITNESS_POINTS + 1, WITNESS_POINTS + 1),
}


@pytest.mark.parametrize("name", PAST_WITNESS)
def test_witnesses_past_the_row_are_refused(name):
    problem_id, n, k = PAST_WITNESS[name]
    assert problems.solve(problem_id, n, k).status == "ok"
    with pytest.raises(EnumerationTooLargeError) as refused:
        problems.solve(problem_id, n, k, with_witnesses=True)
    assert str(WITNESS_POINTS) in str(refused.value)
    assert "problems solve without witnesses" in str(refused.value)


# (problem id, n, k, the count solve calls by name): the first witness holds
# k points in problem 1 and n points in problems 4 and 5
REFUSED_BEFORE_THE_COUNT = {
    "problem 1": (1, BINOMIAL, BINOMIAL // 2, "complexions"),
    "problem 4": (4, WITNESS_POINTS + 1, None, "variations_of_order"),
    "problem 5": (5, WITNESS_POINTS + 1, None, "vicinity_variations"),
}


@pytest.mark.parametrize("name", REFUSED_BEFORE_THE_COUNT)
def test_witnesses_past_the_row_are_refused_before_the_count(name, monkeypatch):
    # C(300000, 150000) alone takes most of a CPU second
    problem_id, n, k, count = REFUSED_BEFORE_THE_COUNT[name]

    def uncounted(*sizes):
        raise AssertionError(f"{count}{sizes} was computed")

    monkeypatch.setattr(problems, count, uncounted)
    with pytest.raises(EnumerationTooLargeError, match="problems solve without witnesses"):
        problems.solve(problem_id, n, k, with_witnesses=True)


@pytest.mark.parametrize(
    "problem_id, n, k, row",
    [
        (1, BINOMIAL + 1, BINOMIAL // 2, "binomial count"),
        (4, FACTORIAL + 1, None, "factorial count"),
        (5, FACTORIAL + 2, None, "factorial count"),
        (SIMPLICITER, POWER_OF_TWO + 1, None, "power-of-two count"),
    ],
)
def test_a_count_row_refuses_witnesses_as_it_refuses_the_count(problem_id, n, k, row):
    # refused by both the count's row and the witness row: the count's message
    for with_witnesses in (False, True):
        with pytest.raises(EnumerationTooLargeError) as refused:
            problems.solve(problem_id, n, k, with_witnesses=with_witnesses)
        assert str(refused.value).startswith(CEILINGS[row].request)


def test_witnesses_at_the_row_are_listed():
    whole = problems.solve(1, WITNESS_POINTS, WITNESS_POINTS, with_witnesses=True)
    assert whole.witnesses == (frozenset(range(1, WITNESS_POINTS + 1)),)
    none = problems.solve(1, WITNESS_POINTS, WITNESS_POINTS + 1, with_witnesses=True)
    assert none.count == 0 and none.witnesses == ()


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", ["human", "csv", "json"])
def test_cli_asks_for_witnesses_only_to_print_them(fmt):
    argv = ["problems", "solve", "--id", "4", "--n", str(WITNESS_POINTS + 1), "--format", fmt]
    code, out, err = _cli([*argv, "--witnesses"])
    if fmt != "json":
        assert code == 0 and (code, out, err) == _cli(argv)
        return
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("combinatoria: error:")
    assert str(WITNESS_POINTS) in lines[0]


# VmHWM is the peak RSS of this process image alone; ru_maxrss would also
# count the test process the child was forked from
CHILD = """
import re, sys
from combinatoria.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read())[1], file=sys.stderr)
sys.exit(code)
"""


def test_a_table_with_witnesses_asked_for_builds_none():
    # 1000 witness images of 50,000 points would take about 400 MB; a bare
    # interpreter peaks near 16 MB
    argv = ["problems", "solve", "--id", "4", "--n", str(FACTORIAL), "--witnesses"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv, "--format", "human"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stderr) < 100_000  # kB


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
    "from_cycles point": (
        lambda: perm.from_cycles([(5, -7)]),
        "point -7 outside 1..5",
        lambda: perm.from_cycles([(5, -HUGE)]),
    ),
    # a set lists its points in hash order, not in an order the caller wrote
    "Permutation set": (
        lambda: perm.Permutation({3, 1, 2}),
        "the points of a one-line form must not be a set, got {1, 2, 3}",
        lambda: perm.Permutation({HUGE}),
    ),
    "Cycle set": (
        lambda: perm.Cycle(frozenset({5, 3, 9})),
        "the points of a cycle must not be a set, got frozenset({9, 3, 5})",
        lambda: perm.Cycle({HUGE}),
    ),
    "from_cycles set": (
        lambda: perm.from_cycles([{1, 2}]),
        "the points of a cycle must not be a set, got {1, 2}",
        lambda: perm.from_cycles([{HUGE}]),
    ),
    "CycleType set": (
        lambda: perm.CycleType(1, {1}),
        "the counts of a cycle type must not be a set, got {1}",
        lambda: perm.CycleType(1, {HUGE}),
    ),
    # an argument of another kind, named before any attribute is read
    "compose kind": (
        lambda: perm.compose("[1]", perm.identity(1)),
        "a permutation must be a Permutation, got '[1]'",
        lambda: perm.compose(perm.identity(1), HUGE),
    ),
    "inverse kind": (
        lambda: perm.inverse((1,)),
        "a permutation must be a Permutation, got (1,)",
        lambda: perm.inverse((HUGE,)),
    ),
    "cycle_type kind": (
        lambda: perm.cycle_type([1]),
        "a permutation must be a Permutation, got [1]",
        lambda: perm.cycle_type(HUGE),
    ),
    "cycle_decomposition kind": (
        lambda: perm.cycle_decomposition("[1]"),
        "a permutation must be a Permutation, got '[1]'",
        lambda: perm.cycle_decomposition(HUGE),
    ),
    "fixed_points kind": (
        lambda: perm.fixed_points([1]),
        "a permutation must be a Permutation, got [1]",
        lambda: perm.fixed_points([HUGE]),
    ),
    "format_one_line kind": (
        lambda: perm.format_one_line([1]),
        "a permutation must be a Permutation, got [1]",
        lambda: perm.format_one_line(HUGE),
    ),
    "format_cycles kind": (
        lambda: perm.format_cycles((1,)),
        "a permutation must be a Permutation, got (1,)",
        lambda: perm.format_cycles((HUGE,)),
    ),
    # text of another kind, named before any str method is called on it
    "parse_one_line kind": (
        lambda: perm.parse_one_line(5),
        "the text of a one-line form must be a str, got 5",
        lambda: perm.parse_one_line(HUGE),
    ),
    "parse_cycles kind": (
        lambda: perm.parse_cycles(b"(1)"),
        "the text of a cycle form must be a str, got b'(1)'",
        lambda: perm.parse_cycles((HUGE,)),
    ),
    "parse_permutation kind": (
        lambda: perm.parse_permutation(None),
        "the text of a permutation must be a str, got None",
        lambda: perm.parse_permutation(HUGE),
    ),
    "parse_head kind": (
        lambda: CaputSpec.parse_head(3, 5),
        "the text of a head must be a str, got 5",
        lambda: CaputSpec.parse_head(3, HUGE),
    ),
    "class_order kind": (
        lambda: partitions.class_order(perm.identity(3)),
        "a cycle type must be a CycleType, got Permutation((1, 2, 3))",
        lambda: partitions.class_order(HUGE),
    ),
    "partition_to_cycle_type kind": (
        lambda: partitions.partition_to_cycle_type((1,)),
        "a partition must be a Partition, got (1,)",
        lambda: partitions.partition_to_cycle_type(HUGE),
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
    "CaputSpec.fixing_symbols": (
        lambda: CaputSpec.fixing_symbols(4, ["e"]),
        "head positions [5] outside 1..4",
        lambda: CaputSpec.fixing_symbols(4, [HUGE]),
    ),
    "fixing_symbols symbol": (
        lambda: CaputSpec.fixing_symbols(4, [1.0]),
        "a symbol must be a whole number, got 1.0",
        lambda: CaputSpec.fixing_symbols(4, [(HUGE,)]),
    ),
    # the symbols are read as a head's positions are: a set passes
    "fixing_symbols mapping": (
        lambda: CaputSpec.fixing_symbols(4, {3: "a"}),
        "the symbols of a head must be a collection of symbols, got {3: 'a'}",
        lambda: CaputSpec.fixing_symbols(4, {HUGE: "a"}),
    ),
    "fixing_symbols no collection": (
        lambda: CaputSpec.fixing_symbols(4, 5),
        "the symbols of a head must be a collection of symbols, got 5",
        lambda: CaputSpec.fixing_symbols(4, HUGE),
    ),
    "fixing_symbols none": (
        lambda: CaputSpec.fixing_symbols(4, None),
        "the symbols of a head must be a collection of symbols, got None",
        lambda: CaputSpec.fixing_symbols(4, -HUGE),
    ),
    # the oracle reads its head and mode as CaputSpec does
    "count_caput_by_filter head": (
        lambda: oracle.count_caput_by_filter(3, frozenset({10}), HeadMode.LOOSE),
        "head positions [10] outside 1..3",
        lambda: oracle.count_caput_by_filter(3, frozenset({HUGE}), HeadMode.LOOSE),
    ),
    "count_caput_by_filter head no collection": (
        lambda: oracle.count_caput_by_filter(3, 5, HeadMode.LOOSE),
        "the positions of a head must be a collection of whole numbers, got 5",
        lambda: oracle.count_caput_by_filter(3, HUGE, HeadMode.LOOSE),
    ),
    "count_caput_by_filter mode": (
        lambda: oracle.count_caput_by_filter(3, frozenset({1}), "bogus"),
        "a head's mode must be loose, exact or setwise, got 'bogus'",
        lambda: oracle.count_caput_by_filter(3, frozenset({1}), HUGE),
    ),
    "satisfies": (
        lambda: caput.satisfies(CaputSpec(2), perm.Permutation((1,))),
        "permutation of degree 1 against a head over 1..2",
        lambda: caput.satisfies(CaputSpec(HUGE), perm.Permutation((1,))),
    ),
    "count_caput kind": (
        lambda: caput.count_caput(3),
        "a head must be a CaputSpec, got 3",
        lambda: caput.count_caput(HUGE),
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


# error paths at the edge of a domain, each pinned by its class and message
EDGE_REFUSALS = {
    "from_cycles empty": (
        lambda: perm.from_cycles([]),
        InvalidDegreeError,
        "cannot infer a degree from an empty cycle list",
    ),
    "Cycle empty": (
        lambda: perm.Cycle(()), InvariantViolationError, "a cycle needs at least one point"
    ),
    "CycleType degree 0": (
        lambda: perm.CycleType(0, ()),
        InvalidDegreeError,
        "degree 0 is not admitted; degrees start at 1",
    ),
    "parse_one_line no brackets": (
        lambda: perm.parse_one_line("1,2"),
        InvariantViolationError,
        "one-line form must look like [1,2,3]: '1,2'",
    ),
    "parse_cycles empty": (
        lambda: perm.parse_cycles(""), InvalidDegreeError, "empty cycle form has no degree"
    ),
    "cycle_type_census 0": (
        lambda: oracle.cycle_type_census(0),
        InvalidDegreeError,
        "degree 0 is not admitted; degrees start at 1",
    ),
    "count_partitions_by_enumeration -1": (
        lambda: oracle.count_partitions_by_enumeration(-1),
        InvariantViolationError,
        "partitions are defined for n >= 0",
    ),
    "vicinity_classes 0": (
        lambda: problems.vicinity_classes(0), InvalidDegreeError, "vicinity classes need n >= 1"
    ),
    "derangements_by_inclusion_exclusion -1": (
        lambda: caput.derangements_by_inclusion_exclusion(-1),
        InvariantViolationError,
        "derangements are defined for m >= 0",
    ),
}


@pytest.mark.parametrize("name", EDGE_REFUSALS)
def test_a_request_at_the_edge_of_its_domain_is_refused_by_name(name):
    call, error, message = EDGE_REFUSALS[name]
    with pytest.raises(CombinatoriaError) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message


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
    "complexions k past n": lambda: problems.complexions(4.0, 5),
    "complexions n below k": lambda: problems.complexions(1.5, 2),
    "complexions k": lambda: problems.complexions(4, 2.0),
    "count_partitions text": lambda: partitions.count_partitions("3"),
    "CycleType": lambda: perm.CycleType(2.0, (0, 1)),
    "verify_all": lambda: oracle.verify_all(1.5),
    "verify_all text": lambda: oracle.verify_all("2"),
    "count_caput": lambda: caput.count_caput(CaputSpec(3.5)),
    "CaputSpec": lambda: CaputSpec(2.5),
    # sizes given as text: each is read before its first comparison
    "personae_count text": lambda: genealogy.personae_count("3"),
    "coordinates text": lambda: genealogy.coordinates("3"),
    "enumerate_partitions text": lambda: partitions.enumerate_partitions("3"),
    "cycle_types_of text": lambda: partitions.cycle_types_of("3"),
    "identity text": lambda: perm.identity("3"),
    "derangements text": lambda: caput.derangements("3"),
    "derangements_by_inclusion_exclusion text": (
        lambda: caput.derangements_by_inclusion_exclusion("3")
    ),
    "complexiones_simpliciter text": lambda: problems.complexiones_simpliciter("3"),
    "variations_of_order text": lambda: problems.variations_of_order("3"),
    "vicinity_variations text": lambda: problems.vicinity_variations("3"),
    "problem7_product n text": lambda: problems.problem7_product("3", 1),
    "problem7_product head size text": lambda: problems.problem7_product(3, "1"),
    "solve text": lambda: problems.solve(4, "3"),
    "solve with witnesses text": lambda: problems.solve(4, "3", with_witnesses=True),
    "reduce_to_caput text": lambda: problems.reduce_to_caput(4, "3"),
    "cycle_type_census text": lambda: oracle.cycle_type_census("3"),
    "rotation_class_census text": lambda: oracle.rotation_class_census("3"),
    "count_caput_by_filter text": (
        lambda: oracle.count_caput_by_filter("3", frozenset(), HeadMode.LOOSE)
    ),
    "count_caput_by_filter head": (
        lambda: oracle.count_caput_by_filter(3, frozenset({1.5}), HeadMode.LOOSE)
    ),
    "count_derangements_by_filter text": lambda: oracle.count_derangements_by_filter("3"),
    "count_partitions_by_enumeration text": (
        lambda: oracle.count_partitions_by_enumeration("3")
    ),
    # unhashable sizes: each is read before a cached walk keys on it
    "cycle_type_census list": lambda: oracle.cycle_type_census([1, 2]),
    "rotation_class_census list": lambda: oracle.rotation_class_census([1, 2]),
    "count_caput_by_filter list": (
        lambda: oracle.count_caput_by_filter([1, 2], frozenset(), HeadMode.LOOSE)
    ),
}


@pytest.mark.parametrize("name", NOT_WHOLE)
def test_a_size_that_is_not_a_whole_number_is_refused_by_name(name):
    # a size is compared only once it is read as a whole number: no case
    # returns a count or ends in a bare TypeError
    refused = r"must be a whole number, got (\d\.\d|'\d'|\[\d, \d\])$"
    with pytest.raises(InvariantViolationError, match=refused):
        NOT_WHOLE[name]()


# Every public parameter under one of these names is a size.
SIZE_NAMES = ("n", "m", "k", "gradus", "degree", "max_n", "head_size")

# A valid value for each argument a size check needs beside the size tried.
VALID_ARGUMENTS = {
    "n": 3, "m": 3, "k": 2, "gradus": 2, "degree": 3, "max_n": 1, "head_size": 1,
    "problem_id": 4,
    "alpha": (1, 1, 0),
    "cycles": [(1, 2)],
    "text": "(12)(3)",
    "head": frozenset(),
    "mode": HeadMode.LOOSE,
}

# (function, size parameter) never read as a whole number, and why
SIZE_EXEMPTIONS = {
    ("ClassOrder", "degree"): "a plain dataclass that checks only its order",
}


def _size_parameters():
    seen = set()
    for module in (combinatoria, oracle):
        for name in module.__all__:
            function = getattr(module, name)
            if not callable(function) or (
                isinstance(function, type) and issubclass(function, BaseException)
            ):
                continue
            if function in seen:  # verify_all is public in both
                continue
            seen.add(function)
            parameters = inspect.signature(function).parameters
            for size in SIZE_NAMES:
                if size in parameters and (name, size) not in SIZE_EXEMPTIONS:
                    yield pytest.param(function, parameters, size, id=f"{name}.{size}")


@pytest.mark.parametrize("bad", ["3", 2.5])
@pytest.mark.parametrize("function, parameters, size", _size_parameters())
def test_every_size_parameter_is_read_as_a_whole_number(function, parameters, size, bad):
    arguments = {
        name: bad if name == size else VALID_ARGUMENTS[name]
        for name, parameter in parameters.items()
        if name == size or parameter.default is inspect.Parameter.empty or name in SIZE_NAMES
    }
    with pytest.raises(InvariantViolationError, match="must be a whole number"):
        result = function(**arguments)
        if isinstance(result, Iterator):
            list(result)


def test_the_size_exemptions_name_real_parameters():
    for name, size in SIZE_EXEMPTIONS:
        function = getattr(combinatoria, name)
        assert size in inspect.signature(function).parameters


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
