"""Every size ceiling refuses the same way: one named error, whatever the size.

A request one past the ceiling and a request of 10**5000, an integer too long
for the default int-to-str limit, must both end in EnumerationTooLargeError
whose message names the ceiling and what still works past it.
"""
import pytest

from combinatoria import caput, genealogy, oracle, partitions, perm, problems
from combinatoria.caput import CaputSpec
from combinatoria.errors import EnumerationTooLargeError

HUGE = 10**5000

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
    "from_cycles": (lambda n: perm.from_cycles([(1, n)]), perm.DEGREE_CEILING, "parse_one_line"),
    "from_cycles degree": (
        lambda n: perm.from_cycles([(1, 2)], degree=n), perm.DEGREE_CEILING, "parse_one_line"
    ),
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
