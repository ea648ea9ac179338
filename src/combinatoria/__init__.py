"""Exact combinatorics of permutations, partitions and fixed-head variations.

The package covers the classical combinatorial repertoire of 1666, stated in
modern terms and checked against brute force: the symmetric group with its
cycle structure, conjugacy classes indexed by integer partitions and sized by
the factorial quotient formula, variation counting under a fixed head
(loose, exact or setwise), circle-of-neighbours counting, and the
consanguinity-tree coordinate model.  All arithmetic is exact; every closed
form has an enumeration oracle in `combinatoria.oracle`.

`ClassOrder` is resolved on first use, so that importing the package does
not load `dataclasses`; see `combinatoria._class_order`.
"""

from .caput import (
    CaputSpec,
    HeadMode,
    count_caput,
    derangements,
    derangements_by_inclusion_exclusion,
    enumerate_caput,
    is_caput_of,
    satisfies,
)
from .errors import (
    CombinatoriaError,
    DegreeMismatchError,
    EnumerationTooLargeError,
    GroundSetMismatchError,
    InvalidDegreeError,
    InvariantViolationError,
)
from .genealogy import (
    TreeCoordinate,
    coordinates,
    personae_count,
)
from .oracle import OracleReport, verify_all
from .partitions import (
    Partition,
    class_order,
    count_partitions,
    cycle_types_of,
    enumerate_partitions,
    partition_to_cycle_type,
    two_part_count,
)
from .perm import (
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
from .problems import (
    CaputReduction,
    ProblemResult,
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

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "ClassOrder":
        from ._class_order import ClassOrder

        return ClassOrder
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CaputReduction",
    "CaputSpec",
    "ClassOrder",
    "CombinatoriaError",
    "Cycle",
    "CycleType",
    "DegreeMismatchError",
    "EnumerationTooLargeError",
    "GroundSetMismatchError",
    "HeadMode",
    "InvalidDegreeError",
    "InvariantViolationError",
    "OracleReport",
    "Partition",
    "Permutation",
    "ProblemResult",
    "TreeCoordinate",
    "canonical_vicinity",
    "class_order",
    "complexiones_simpliciter",
    "complexions",
    "compose",
    "coordinates",
    "count_caput",
    "count_partitions",
    "cycle_decomposition",
    "cycle_type",
    "cycle_types_of",
    "derangements",
    "derangements_by_inclusion_exclusion",
    "enumerate_caput",
    "enumerate_partitions",
    "fixed_points",
    "format_cycles",
    "format_one_line",
    "from_cycles",
    "identity",
    "inverse",
    "is_caput_of",
    "parse_cycles",
    "parse_one_line",
    "parse_permutation",
    "partition_to_cycle_type",
    "personae_count",
    "problem7_product",
    "reduce_to_caput",
    "satisfies",
    "solve",
    "two_part_count",
    "variations_of_order",
    "verify_all",
    "vicinity_classes",
    "vicinity_variations",
]
