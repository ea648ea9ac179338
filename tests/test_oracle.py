import hashlib
import itertools
import math
import tracemalloc
from collections import Counter

import pytest

import combinatoria.caput as caput_mod
import combinatoria.genealogy as genealogy_mod
import combinatoria.oracle as oracle_mod
import combinatoria.partitions as partitions_mod
import combinatoria.problems as problems_mod
from combinatoria.caput import HeadMode
from combinatoria.errors import (
    EnumerationTooLargeError,
    InvalidDegreeError,
    InvariantViolationError,
)
from combinatoria.oracle import (
    SN_CEILING,
    OracleReport,
    count_caput_by_filter,
    count_derangements_by_filter,
    count_partitions_by_enumeration,
    count_two_part_by_enumeration,
    cycle_type_census,
    enumerate_sn,
    rotation_class_census,
    verify_all,
)
from combinatoria.partitions import ClassOrder

from conftest import all_perms, naive_fixed_points


class TestEnumerateSn:
    def test_s3_is_the_classical_six(self):
        listed = {p.image for p in enumerate_sn(3)}
        assert listed == {
            (1, 2, 3),  # (1)(2)(3)
            (1, 3, 2),  # (1)(23)
            (2, 1, 3),  # (3)(12)
            (2, 3, 1),  # (123)
            (3, 1, 2),  # (132)
            (3, 2, 1),  # (2)(13)
        }

    def test_s1_is_the_identity_alone(self):
        assert [p.image for p in enumerate_sn(1)] == [(1,)]

    def test_s5_has_120_distinct_elements(self):
        images = [p.image for p in enumerate_sn(5)]
        assert len(images) == 120
        assert len(set(images)) == 120

    def test_exactly_factorial_many_distinct_elements_up_to_8(self):
        for n in range(1, 9):
            images = {p.image for p in enumerate_sn(n)}
            assert len(images) == math.factorial(n)

    def test_lexicographic_order(self):
        images = [p.image for p in enumerate_sn(4)]
        assert images == sorted(images)

    def test_ceiling(self):
        with pytest.raises(EnumerationTooLargeError, match="9"):
            list(enumerate_sn(10))

    def test_degree_zero_rejected(self):
        with pytest.raises(InvalidDegreeError):
            list(enumerate_sn(0))


# sha256 of each census's fields, every field in sorted order, captured from
# the earlier walk that listed a (length, mask) pair per cycle
CENSUS_DIGESTS = {
    1: "0f372ced861214b951c57413bc2f1e7d2b1c66eb6d9b5925769457ab26fa85f9",
    2: "a18dee7c396917dd9de1de899732134b7ab764d741abe4b387802bf233405c10",
    3: "358eab2581dc4af512b41076e80fcd12eef8657ebfbde9d23b745acc558cf26e",
    4: "49de5d1348632cb23ad2e7cc7e2f437426965b50314ac1158c82aa6f5fcae193",
    5: "2332b8cd38767009b6d1896890bee70ae6e7dc871ffb1abe4a65508ce4196c25",
    6: "8bae744a6863280f6e6fac9d2f3c2b2aa2856dbd0406b440050d24761025ea03",
    7: "dc4cab14ac9a8c08e1a1497fb40e081a71943678d59dff17455863956a48e7b6",
    8: "fa6062c0cf1a79829882beaee5ea8d84b853b45df916d043410f99859997fe63",
}


def _walk_names(code) -> set[str]:
    # the global and attribute names a function's code reads, nested code included
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _walk_names(const)
    return names


class TestFilterCounters:
    def test_caput_filter_reproduces_the_six_rows(self):
        assert count_caput_by_filter(4, frozenset({1}), HeadMode.LOOSE) == 6
        assert count_caput_by_filter(4, frozenset({1}), HeadMode.EXACT) == 2
        assert count_caput_by_filter(4, frozenset({1, 2}), HeadMode.SETWISE) == 4

    def test_partition_walk(self):
        assert count_partitions_by_enumeration(6) == 11
        assert count_partitions_by_enumeration(0) == 1

    def test_two_part_listing(self):
        assert count_two_part_by_enumeration(6) == 3
        assert count_two_part_by_enumeration(2) == 1
        assert count_two_part_by_enumeration(1) == 0

    def test_derangement_filter(self):
        assert [count_derangements_by_filter(m) for m in range(6)] == [1, 0, 1, 2, 9, 44]

    def test_cycle_type_census_of_s3(self):
        census = cycle_type_census(3)
        assert census == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}

    def test_rotation_census_of_s4(self):
        assert len(rotation_class_census(4)) == 6

    @pytest.mark.parametrize("n", range(1, 7))
    def test_censuses_match_a_raw_filter(self, n):
        # the reference walks every permutation itself and tests each head
        # against it, where the census counts cycle partitions
        points = range(1, n + 1)
        heads = [
            frozenset(c) for k in range(n + 1) for c in itertools.combinations(points, k)
        ]
        cycle_types, head_counts, rotations = Counter(), Counter(), set()
        for image in all_perms(n):
            seen, lengths = set(), []
            for start in points:
                x, length = start, 0
                while x not in seen:
                    seen.add(x)
                    x = image[x - 1]
                    length += 1
                if length:
                    lengths.append(length)
            cycle_types[tuple(sorted(lengths, reverse=True))] += 1
            fixed = naive_fixed_points(image)
            for head in heads:
                head_counts[head, HeadMode.LOOSE] += head <= fixed
                head_counts[head, HeadMode.EXACT] += head == fixed
                head_counts[head, HeadMode.SETWISE] += {image[i - 1] for i in head} == head
            k = image.index(1)
            rotations.add(image[k:] + image[:k])
        assert cycle_type_census(n) == cycle_types
        for head in heads:
            for mode in HeadMode:
                assert count_caput_by_filter(n, head, mode) == head_counts[head, mode]
        assert count_derangements_by_filter(n) == head_counts[frozenset(), HeadMode.EXACT]
        assert rotation_class_census(n) == rotations

    @pytest.mark.parametrize("n", sorted(CENSUS_DIGESTS))
    def test_census_is_pinned_by_digest(self, n):
        census = oracle_mod._census(n)
        fields = (
            sorted(census.cycle_types.items()),
            sorted(census.fixed.items()),
            sorted(census.invariant.items()),
            sorted(census.rotations),
        )
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == CENSUS_DIGESTS[n]

    def test_the_walk_imports_nothing_it_checks(self):
        # the cycle walk is the oracle's own: no closed-form module, nor the
        # permutation and head types, is reached from the census
        census_names = _walk_names(oracle_mod._census.__wrapped__.__code__)
        assert "_orbit_masks" in census_names
        names = census_names | _walk_names(oracle_mod._orbit_masks.__code__)
        forbidden = {
            "caput", "partitions", "problems", "genealogy", "perm", "Permutation", "HeadMode",
        }
        assert names.isdisjoint(forbidden), names & forbidden

    @pytest.mark.parametrize(
        "census",
        [
            cycle_type_census,
            rotation_class_census,
            count_derangements_by_filter,
            lambda n: count_caput_by_filter(n, frozenset(), HeadMode.LOOSE),
        ],
    )
    def test_censuses_refuse_past_the_ceiling(self, census):
        with pytest.raises(EnumerationTooLargeError, match=str(SN_CEILING)):
            census(SN_CEILING + 1)


class TestOracleReport:
    def test_fail_requires_counterexample(self):
        with pytest.raises(InvariantViolationError):
            OracleReport(claim="x", n_range="n=1", passed=False)

    def test_verdict_strings(self):
        assert OracleReport("x", "n=1", True).verdict == "pass"
        assert OracleReport("x", "n=1", False, "boom").verdict == "fail"


class TestVerifyAll:
    def test_all_suites_pass_at_max_n_5(self):
        reports = verify_all(5)
        assert len(reports) == 9
        assert all(r.passed for r in reports)

    def test_degenerate_run_passes(self):
        assert all(r.passed for r in verify_all(0))

    def test_deterministic(self):
        assert verify_all(4) == verify_all(4)

    def test_genealogy_check_holds_one_gradus_at_a_time(self):
        tracemalloc.start()
        try:
            genealogy_mod.coordinates(12)
            alone = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert next(oracle_mod._check_genealogy(12), None) is None
            checked = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checked < 1.5 * alone

    def test_genealogy_check_frees_each_gradus_before_the_next(self, monkeypatch):
        true_coordinates = genealogy_mod.coordinates
        freed, built_early = [], []

        class Tracked(list):
            def __del__(self):
                freed.append(self.gradus)

        def tracked(gradus):
            if gradus >= 1 and gradus - 1 not in freed:
                built_early.append(gradus)
            coords = Tracked(true_coordinates(gradus))
            coords.gradus = gradus
            return coords

        monkeypatch.setattr(genealogy_mod, "coordinates", tracked)
        assert list(oracle_mod._check_genealogy(8)) == []
        assert built_early == []
        assert freed == list(range(9))

    def test_out_of_range(self):
        with pytest.raises(EnumerationTooLargeError):
            verify_all(9)
        with pytest.raises(InvariantViolationError):
            verify_all(-1)


def _swap_adjacent(items: list, i: int) -> list:
    return items[:i] + [items[i + 1], items[i]] + items[i + 2:]


def _lift_top_of_path_zero(c, gradus: int):
    # path 0's top rank moved one rank up: the listing stays strictly
    # increasing and keeps its length and its last pair
    if gradus >= 1 and (c.antecedens, c.sequens) == (0, gradus):
        return genealogy_mod.TreeCoordinate(0, gradus + 1)
    return c


def _layout(paths: int, ranks: range) -> list:
    pairs = itertools.product(range(paths), ranks)
    return list(itertools.starmap(genealogy_mod.TreeCoordinate, pairs))


# At least one corrupted function per suite: (module, name, corruption of the
# true function, max_n, {failed claim: counterexample}).
MUTATIONS = {
    "cycle_types_of": (
        partitions_mod, "cycle_types_of",
        # the identity class dropped, the n-cycle class listed twice
        lambda f: lambda n: f(n)[:-1] + f(n)[:1] if n >= 4 else f(n), 4,
        {
            "class-order formula vs cycle-type census":
                "n=4: item 4 listed (4,), expected (1, 1, 1, 1)",
        },
    ),
    "cycle_types_of reversed": (
        partitions_mod, "cycle_types_of", lambda f: lambda n: f(n)[::-1] if n == 4 else f(n), 4,
        {
            "class-order formula vs cycle-type census":
                "n=4: item 0 listed (1, 1, 1, 1), expected (4,)",
        },
    ),
    "count_partitions": (
        partitions_mod, "count_partitions", lambda f: lambda n: f(n) + (n == 5), 2,
        {"partition recurrence vs exhaustive walk": "N=5: recurrence 8, walk 7"},
    ),
    "two_part_count": (
        partitions_mod, "two_part_count", lambda f: lambda n: f(n) + (n == 7), 1,
        {"two-part formula vs pair listing": "N=7: formula 4, listing 3"},
    ),
    "derangements": (
        caput_mod, "derangements", lambda f: lambda m: f(m) + (m == 4), 4,
        {
            "head counts (all modes) vs filtered enumeration":
                "n=4, head [], mode exact: closed form 10, filter 9",
            "derangement numbers vs fixed-point-free census":
                "m=4: recurrence 10, inclusion-exclusion 9, census 9",
        },
    ),
    "coordinates": (
        genealogy_mod, "coordinates",
        lambda f: lambda g: _swap_adjacent(f(g), 3) if g == 3 else f(g), 2,
        {
            "person count vs coordinate materialization":
                "gradus=3: item 3 listed (1, 0), expected (0, 3)",
        },
    ),
    "coordinates (0, g) moved to (0, g + 1)": (
        genealogy_mod, "coordinates",
        lambda f: lambda g: [_lift_top_of_path_zero(c, g) for c in f(g)], 1,
        {
            "person count vs coordinate materialization":
                "gradus=1: item 1 listed (0, 2), expected (0, 1)",
        },
    ),
    "personae_count": (
        genealogy_mod, "personae_count", lambda f: lambda g: f(g) + (g == 2), 1,
        {
            "person count vs coordinate materialization":
                "gradus=2: count 13, listed 12, distinct 12",
        },
    ),
    "coordinates ranks g + 2": (
        genealogy_mod, "coordinates", lambda f: lambda g: _layout(2**g, range(g + 2)), 1,
        {
            "person count vs coordinate materialization":
                "gradus=0: item 1 listed (0, 1), expected None",
        },
    ),
    "coordinates shifted up one rank": (
        genealogy_mod, "coordinates", lambda f: lambda g: _layout(2**g, range(1, g + 2)), 1,
        {
            "person count vs coordinate materialization":
                "gradus=0: item 0 listed (0, 1), expected (0, 0)",
        },
    ),
    "personae_count ranks g + 2": (
        genealogy_mod, "personae_count", lambda f: lambda g: 2**g * (g + 2), 1,
        {
            "person count vs coordinate materialization":
                "gradus=0: count 2, listed 1, distinct 1",
        },
    ),
    "vicinity_variations": (
        problems_mod, "vicinity_variations", lambda f: lambda n: f(n) * (1 + (n == 4)), 4,
        {
            "vicinity count vs class order vs rotation census":
                "n=4: vicinity 12, class order 6, census 6",
        },
    ),
    "complexions": (
        problems_mod, "complexions", lambda f: lambda n, k: f(n, k) + ((n, k) == (4, 2)), 4,
        {"complexion counts vs subset census": "n=4, k=2: closed form 7, census 6"},
    ),
    "vicinity_classes": (
        problems_mod, "vicinity_classes",
        lambda f: lambda n: f(n)[:-1] if n == 4 else f(n), 4,
        {
            "vicinity class representatives vs rotation census":
                "n=4: item 5 listed None, expected (1, 4, 3, 2)",
        },
    ),
    "vicinity_classes reversed": (
        problems_mod, "vicinity_classes", lambda f: lambda n: f(n)[::-1] if n == 4 else f(n), 4,
        {
            "vicinity class representatives vs rotation census":
                "n=4: item 0 listed (1, 4, 3, 2), expected (1, 2, 3, 4)",
        },
    ),
}


class TestMutationDetection:
    def test_corrupted_class_order_denominator_is_caught(self, monkeypatch):
        def corrupted(t):
            # drop the alpha_i! factors from the denominator
            n = t.degree
            denominator = 1
            for i, a in enumerate(t.alpha, start=1):
                denominator *= i**a
            return ClassOrder(
                degree=n, cycle_type=t, order=math.factorial(n) // denominator
            )

        monkeypatch.setattr(partitions_mod, "class_order", corrupted)
        reports = verify_all(4)
        failed = [r for r in reports if not r.passed]
        assert failed, "the corrupted formula slipped through"
        class_report = next(
            r for r in failed if r.claim.startswith("class-order")
        )
        assert class_report.counterexample is not None
        assert "formula" in class_report.counterexample

    def test_corrupted_caput_count_is_caught(self, monkeypatch):
        true_count = caput_mod.count_caput

        def corrupted(spec):
            if spec.mode is HeadMode.EXACT:
                return math.factorial(spec.degree - spec.head_size)  # wrong regime
            return true_count(spec)

        monkeypatch.setattr(caput_mod, "count_caput", corrupted)
        reports = verify_all(3)
        failed = [r for r in reports if not r.passed]
        assert any(r.claim.startswith("head counts") for r in failed)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_each_suite_reports_its_corruption(self, monkeypatch, name):
        module, attr, corrupt, max_n, expected = MUTATIONS[name]
        monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
        reports = verify_all(max_n)
        failed = {r.claim: r.counterexample for r in reports if not r.passed}
        assert failed == expected

    def test_every_claim_has_a_corruption_that_fails_it(self):
        failed = {claim for *_, expected in MUTATIONS.values() for claim in expected}
        assert failed == {claim for claim, *_ in oracle_mod._SUITES}

    def test_every_check_is_registered_once_under_its_own_claim(self):
        checks = sorted(name for name in vars(oracle_mod) if name.startswith("_check_"))
        registered = [check.__name__ for *_, check in oracle_mod._SUITES]
        assert sorted(registered) == checks
        claims = [claim for claim, *_ in oracle_mod._SUITES]
        assert len(set(claims)) == len(claims) == 9
