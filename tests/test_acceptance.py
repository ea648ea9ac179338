"""Acceptance checks: the exit contract, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion together with measured runtimes.  Every tolerance is exact
equality; the stated time budgets are asserted where they are load-bearing.

Criterion 1 is implemented exactly as stated and marked as an expected
failure: the stated reference value p(10) = 22 is the partition count of 8,
not of 10; exhaustive enumeration (unit-tested and re-run here) yields 42.
The library keeps the mathematically exact value.
"""
import math
import time
from collections import Counter

import pytest

import combinatoria.partitions as partitions_mod
from combinatoria import ClassOrder
from combinatoria.caput import CaputSpec, HeadMode, count_caput, enumerate_caput
from combinatoria.genealogy import coordinates, personae_count
from combinatoria.oracle import (
    count_caput_by_filter,
    count_partitions_by_enumeration,
    count_two_part_by_enumeration,
    cycle_type_census,
    rotation_class_census,
    verify_all,
)
from combinatoria.partitions import (
    Partition,
    class_order,
    count_partitions,
    cycle_types_of,
    enumerate_partitions,
    partition_to_cycle_type,
    two_part_count,
)
from combinatoria.perm import cycle_type, format_cycles, parse_one_line
from combinatoria.problems import (
    SIMPLICITER,
    reduce_to_caput,
    vicinity_variations,
)


def _report(criterion: int, passed: bool, detail: str, elapsed: float | None = None):
    verdict = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {criterion:02d}: {verdict}{timing} - {detail}")


@pytest.mark.xfail(
    strict=True,
    reason="the stated value p(10)=22 is the partition count of 8, not 10; "
    "exhaustive enumeration of the partitions of 10 yields 42, so exact "
    "equality cannot hold for a correct partition counter",
)
def test_criterion_01_partition_values_as_stated():
    t0 = time.perf_counter()
    stated = {0: 1, 6: 11, 10: 22, 20: 627, 100: 190569292}
    computed = {n: count_partitions(n) for n in stated}
    # independent cross-check of the disputed point before failing
    assert count_partitions_by_enumeration(10) == computed[10] == 42
    ok = computed == stated
    _report(1, ok, f"stated {stated} vs computed {computed}", time.perf_counter() - t0)
    assert computed == stated
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_partitions_of_six_in_printed_order():
    t0 = time.perf_counter()
    expected = [
        "6", "5,1", "4,2", "4,1,1", "3,3", "3,2,1",
        "3,1,1,1", "2,2,2", "2,2,1,1", "2,1,1,1,1", "1,1,1,1,1,1",
    ]
    got = [str(p) for p in enumerate_partitions(6)]
    elapsed = time.perf_counter() - t0
    _report(2, got == expected, f"{len(got)} partitions, sequence exact", elapsed)
    assert got == expected
    assert elapsed < 1.0


def test_criterion_03_class_orders_vs_oracle_and_class_equation():
    t0 = time.perf_counter()
    for n in range(1, 8):
        census = cycle_type_census(n)
        types = list(cycle_types_of(n))
        assert len(types) == len(census)
        for t in types:
            assert class_order(t).order == census[t.cycle_lengths()]
    for n in range(1, 13):
        assert sum(class_order(t).order for t in cycle_types_of(n)) == math.factorial(n)
    elapsed = time.perf_counter() - t0
    _report(3, True, "formula = census for n<=7; class equation holds to n=12", elapsed)
    assert elapsed < 30.0


def test_criterion_04_worked_s6_example():
    t0 = time.perf_counter()
    p = parse_one_line("[1,4,3,6,5,2]")
    assert format_cycles(p) == "(1)(3)(5)(246)"
    t = cycle_type(p)
    assert t.alpha[0] == 3 and t.alpha[2] == 1
    assert sum(t.alpha) == 4 and sum(i * a for i, a in enumerate(t.alpha, 1)) == 6
    elapsed = time.perf_counter() - t0
    _report(4, True, "(1)(3)(5)(246) with alpha_1=3, alpha_3=1 and 3+3*1=6", elapsed)
    assert elapsed < 1.0


def test_criterion_05_fixed_head_example():
    t0 = time.perf_counter()
    loose = CaputSpec.fixing_symbols(4, "a", HeadMode.LOOSE)
    assert count_caput(loose) == 6
    profile = Counter(cycle_type(p).alpha for p in enumerate_caput(loose))
    assert profile == Counter(
        {(4, 0, 0, 0): 1, (2, 1, 0, 0): 3, (1, 0, 1, 0): 2}
    )
    exact = CaputSpec.fixing_symbols(4, "a", HeadMode.EXACT)
    assert count_caput(exact) == 2
    elapsed = time.perf_counter() - t0
    _report(5, True, "loose count 6 splitting 1+3+2; exact count 2", elapsed)
    assert elapsed < 1.0


def test_criterion_06_caput_oracle_sweep():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for mask in range(2**n):
            head = frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
            for mode in HeadMode:
                spec = CaputSpec(degree=n, head=head, mode=mode)
                assert count_caput(spec) == count_caput_by_filter(n, head, mode)
                checked += 1
    assert checked == 1530
    elapsed = time.perf_counter() - t0
    _report(6, True, f"{checked} head/mode pairs agree with filtration", elapsed)
    assert elapsed < 60.0


def test_criterion_07_vicinity_triangle():
    t0 = time.perf_counter()
    for n in range(1, 9):
        full_cycle = partition_to_cycle_type(Partition((n,)))
        assert (
            vicinity_variations(n)
            == class_order(full_cycle).order
            == len(rotation_class_census(n))
            == math.factorial(n - 1)
        )
    assert vicinity_variations(4) == 24 // 4 == 6
    elapsed = time.perf_counter() - t0
    _report(7, True, "(n-1)! = class order = rotation census for n<=8; 24/4=6", elapsed)
    assert elapsed < 10.0


def test_criterion_08_two_part_formula():
    t0 = time.perf_counter()
    for n in range(2, 201):
        counted = two_part_count(n)
        assert counted == count_two_part_by_enumeration(n)
        assert counted == (n // 2 if n % 2 == 0 else (n - 1) // 2)
    elapsed = time.perf_counter() - t0
    _report(8, True, "formula = listing and parity split for N=2..200", elapsed)
    assert elapsed < 5.0


def test_criterion_09_genealogy_counts_and_coordinates():
    t0 = time.perf_counter()
    for gradus in range(16):
        coords = coordinates(gradus)
        assert personae_count(gradus) == 2**gradus * (gradus + 1) == len(coords)
        pairs = {(c.antecedens, c.sequens) for c in coords}
        assert len(pairs) == len(coords)
        for c in coords:
            if c.antecedens != c.sequens:
                assert c.swapped() != c
    elapsed = time.perf_counter() - t0
    _report(9, True, "2^n*(n+1) = coordinate count, ordered pairs distinct, n<=15", elapsed)
    assert elapsed < 5.0


def test_criterion_10_reduction_coherence():
    t0 = time.perf_counter()
    four = reduce_to_caput(4, n=4)
    assert four.status == "ok" and four.agrees and four.direct_count == 24
    five = reduce_to_caput(5, n=4)
    assert five.status == "ok" and five.agrees and five.direct_count == 6
    simpliciter = reduce_to_caput(SIMPLICITER, n=4)
    assert simpliciter.status == "not-reducible"
    assert simpliciter.caput_count is None
    elapsed = time.perf_counter() - t0
    _report(10, True, "problems 4 and 5 reduce; simpliciter marked not-reducible", elapsed)
    assert elapsed < 1.0


def test_criterion_11_mutation_sanity(monkeypatch):
    t0 = time.perf_counter()

    def corrupted(t):
        denominator = 1
        for i, a in enumerate(t.alpha, start=1):
            denominator *= i**a  # the alpha_i! factors are gone
        return ClassOrder(
            degree=t.degree,
            cycle_type=t,
            order=math.factorial(t.degree) // denominator,
        )

    monkeypatch.setattr(partitions_mod, "class_order", corrupted)
    reports = verify_all(4)
    monkeypatch.undo()
    failed = [r for r in reports if not r.passed]
    assert failed, "verification accepted a corrupted class-order formula"
    witness = next(r for r in failed if r.claim.startswith("class-order"))
    assert witness.counterexample
    elapsed = time.perf_counter() - t0
    _report(11, True, f"corruption caught with counterexample: {witness.counterexample}", elapsed)
    assert elapsed < 30.0


def test_full_verification_sweep_within_budget():
    t0 = time.perf_counter()
    reports = verify_all(7)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports)
    _report(0, ok, f"verify --max-n 7: {len(reports)} suites, all pass", elapsed)
    assert ok
    assert elapsed < 120.0
