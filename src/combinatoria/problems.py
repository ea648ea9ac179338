"""The twelve classical problems as named operations.

The corpus splits into three groups: complexions (problems 1-3), variations
of order and of disposition (4-6), and the head-derived problems (7-12).
Only problems 4, 5, 7 and 10 survive with usable content; problems 1-3 are
covered by the complexion family (subset counting), and the remaining ids
are reserved tags carried with a "not specified in source" status rather
than invented solutions.

Everything here is exact integer arithmetic.  The enumerating variants cap
their output sizes, and the counting variants the sizes of their factorial,
power-of-two and binomial counts.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from ._value import Value
from .caput import CaputSpec, HeadMode, _factorial, count_caput
from .errors import CEILINGS, InvalidDegreeError, InvariantViolationError, refuse_past, shown
from .perm import Permutation, _trusted, _trusted_all

__all__ = [
    "ProblemResult",
    "CaputReduction",
    "complexions",
    "complexiones_simpliciter",
    "variations_of_order",
    "vicinity_variations",
    "vicinity_classes",
    "canonical_vicinity",
    "problem7_product",
    "solve",
    "reduce_to_caput",
    "PROBLEM_TITLES",
    "SIMPLICITER",
    "VICINITY_CLASS_CEILING",
]

VICINITY_CLASS_CEILING = CEILINGS["vicinity listing"].limit

SIMPLICITER = "simpliciter"

PROBLEM_TITLES: dict[int | str, str] = {
    1: "complexions of a given exponent (subset counting)",
    2: "complexions of a given exponent (subset counting)",
    3: "complexions of a given exponent (subset counting)",
    4: "variations of order: all rearrangements of n things",
    5: "variations of vicinity: rearrangements up to rotation on a circle",
    6: "not specified in source",
    7: "given the invariant head, find the variations",
    8: "not specified in source",
    9: "not specified in source",
    10: "containment of a smaller variation in a larger one (head test)",
    11: "not specified in source",
    12: "not specified in source",
    SIMPLICITER: "all complexions of a whole, every exponent at once",
}


def complexions(n: int, k: int) -> int:
    """Size-k sub-wholes of an n-whole: the binomial coefficient.

    k = 1 counts the "unions" (singletons); k > n yields 0, not an error.
    """
    if n < 0 or k < 0:
        raise InvariantViolationError("complexions need n >= 0 and k >= 0")
    if k > n:
        return 0
    refuse_past("binomial count", n)
    return math.comb(n, k)


def complexiones_simpliciter(n: int, include_empty: bool = False) -> int:
    """All non-empty complexions of an n-whole: 2^n - 1.

    The count traditionally starts at the unions, so the empty sub-whole is
    excluded; pass include_empty=True for the 2^n variant.
    """
    if n < 1:
        raise InvalidDegreeError("a whole needs at least one part")
    refuse_past("power-of-two count", n)
    return 2**n if include_empty else 2**n - 1


def variations_of_order(n: int) -> int:
    """All rearrangements of n distinct things: n!."""
    if n < 1:
        raise InvalidDegreeError("variations of order need n >= 1")
    return _factorial(n)


def vicinity_variations(n: int) -> int:
    """Rearrangements of n things on a circle, counted up to rotation: (n-1)!.

    Only the oriented neighbourhood matters, so the n rotations of one
    arrangement collapse: n!/n.  Reflections are distinct on purpose; the
    24/4 = 6 arithmetic of the classical four-letter example forces the
    rotation-only reading.
    """
    if n < 1:
        raise InvalidDegreeError("vicinity variations need n >= 1")
    return _factorial(n - 1)


def canonical_vicinity(arrangement: Permutation | Sequence[int]) -> Permutation:
    """The rotation of the arrangement that places point 1 first.

    Two arrangements are vicinity-equivalent iff they canonicalize equally:
    abcd, bcda, cdab and dabc all land on abcd.
    """
    # a Permutation was validated when it was built; only a raw sequence needs it
    if not isinstance(arrangement, Permutation):
        arrangement = Permutation(arrangement)
    image = arrangement.image
    k = image.index(1)
    return _trusted(image[k:] + image[:k])


def vicinity_classes(n: int) -> list[Permutation]:
    """One canonical representative per rotation class, (n-1)! in all.

    Representatives start with point 1 and come out in lexicographic order.
    """
    if n < 1:
        raise InvalidDegreeError("vicinity classes need n >= 1")
    refuse_past("vicinity listing", n)
    return list(_trusted_all(_vicinity_images(n)))


def _vicinity_images(n: int) -> Iterator[tuple[int, ...]]:
    """The one-line images of the vicinity class representatives, in lex order."""
    return map((1,).__add__, itertools.permutations(range(2, n + 1)))


def problem7_product(n: int, head_size: int) -> int:
    """The product A: variations of the n-k exterior things, i.e. (n-k)!.

    This mirrors the classical reduction explicitly - fixing a head of size
    k leaves a plain variation-of-order problem on the rest - and must always
    agree with count_caput in LOOSE mode.
    """
    if not 0 <= head_size <= n:
        raise InvariantViolationError(f"head size {shown(head_size)} outside 0..{shown(n)}")
    return _factorial(n - head_size)


class ProblemResult(Value):
    """Outcome of solving one numbered problem."""

    __slots__ = ("problem_id", "inputs", "count", "witnesses", "truncated", "status")
    problem_id: int | str
    inputs: dict
    count: int | None
    witnesses: tuple | None
    truncated: bool
    status: str  # "ok" | "not-specified-in-source" | "not-a-counting-problem"

    def __init__(
        self,
        problem_id: int | str,
        inputs: dict,
        count: int | None,
        witnesses: tuple | None = None,
        truncated: bool = False,
        status: str = "ok",
    ) -> None:
        if witnesses is not None and not truncated:
            if count != len(witnesses):
                raise InvariantViolationError(
                    f"{len(witnesses)} witnesses against count {shown(count)}"
                )
        self._fill(problem_id, inputs, count, witnesses, truncated, status)


class CaputReduction(Value):
    """How a problem's count is recovered through the head machinery.

    ``status`` is "ok" when both routes were computed, "not-reducible" when
    the reduction is known to be impossible (complexiones simpliciter), and
    "not-specified-in-source" for the reserved problem ids.
    """

    __slots__ = (
        "problem_id", "inputs", "status", "direct_count", "caput_count",
        "head_description", "note",
    )
    problem_id: int | str
    inputs: dict
    status: str
    direct_count: int | None
    caput_count: int | None
    head_description: str
    note: str

    def __init__(
        self,
        problem_id: int | str,
        inputs: dict,
        status: str,
        direct_count: int | None = None,
        caput_count: int | None = None,
        head_description: str = "",
        note: str = "",
    ) -> None:
        self._fill(
            problem_id, inputs, status, direct_count, caput_count, head_description, note
        )

    @property
    def agrees(self) -> bool | None:
        if self.status != "ok":
            return None
        return self.direct_count == self.caput_count


def _subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The size-k subsets of 1..n in lexicographic order.  For k > n there
    are none, and the pool of n points combinations would build is skipped."""
    return itertools.combinations(range(1, n + 1), k) if k <= n else iter(())


# Each solvable id: its count and its witness stream, both called with
# (n, k), and the error when k is needed but missing.  The lambdas look the
# functions up when called, so a rebound module name is seen.
_COMPLEXION = (
    lambda n, k: complexions(n, k),
    lambda n, k: map(frozenset, _subsets(n, k)),
    "complexion problems need the exponent k",
)
_PROBLEMS = {
    1: _COMPLEXION,
    2: _COMPLEXION,
    3: _COMPLEXION,
    4: (
        lambda n, k: variations_of_order(n),
        lambda n, k: itertools.permutations(range(1, n + 1)),
        None,
    ),
    5: (lambda n, k: vicinity_variations(n), lambda n, k: _vicinity_images(n), None),
    7: (lambda n, k: problem7_product(n, k), None, "problem 7 needs the head size k"),
    SIMPLICITER: (
        lambda n, k: complexiones_simpliciter(n),
        # every non-empty complexion, exponent by exponent
        lambda n, k: itertools.chain.from_iterable(
            _COMPLEXION[1](n, size) for size in range(1, n + 1)
        ),
        None,
    ),
}


def solve(
    problem_id: int | str,
    n: int,
    k: int | None = None,
    with_witnesses: bool = False,
    witness_limit: int = 1000,
) -> ProblemResult:
    """Solve one numbered problem for n things (k where an exponent is needed).

    Reserved ids return a ProblemResult with a not-specified status instead
    of a fabricated answer.
    """
    if problem_id not in PROBLEM_TITLES:
        raise InvariantViolationError(
            f"unknown problem id {shown(problem_id)}; use 1..12 or {SIMPLICITER!r}"
        )
    inputs = {"n": n} if k is None else {"n": n, "k": k}
    if problem_id == 10:
        # containment is a predicate, not a count: see caput.is_caput_of
        return ProblemResult(problem_id, inputs, count=None, status="not-a-counting-problem")
    if problem_id not in _PROBLEMS:
        return ProblemResult(problem_id, inputs, count=None, status="not-specified-in-source")
    count_of, listing, needs_k = _PROBLEMS[problem_id]
    if needs_k and k is None:
        raise InvariantViolationError(needs_k)
    count = count_of(n, k)
    witnesses, truncated = None, False
    if with_witnesses and listing:
        # Streamed, cut at limit + 1: only what is kept is built, and the
        # extra item tells whether anything was cut.
        kept = tuple(itertools.islice(listing(n, k), witness_limit + 1))
        witnesses, truncated = kept[:witness_limit], len(kept) > witness_limit
    return ProblemResult(problem_id, inputs, count, witnesses, truncated)


def _heads_listed(n: int, k: int, heads: int) -> int:
    """Count the size-k heads over 1..n by listing them, once their number,
    the direct count C(n, k), is within its ceiling.  These heads are the
    exponent-k complexions, so the binomial formula is not reused."""
    refuse_past("reduction heads", heads)
    return sum(1 for _ in _subsets(n, k))


def _loose(head: frozenset):
    return lambda n, k, direct: count_caput(CaputSpec(degree=n, head=head, mode=HeadMode.LOOSE))


# Each id whose count the head machinery recovers: that count, called with
# (n, k, the direct count), and a template for the head it uses.
_REDUCTIONS = {
    **dict.fromkeys(
        (1, 2, 3), (_heads_listed, "all size-{k} heads over 1..{n}, counted by enumeration")
    ),
    4: (_loose(frozenset()), "empty head, loose mode"),
    5: (_loose(frozenset({1})), "monadic head at position 1, loose mode"),
}


def reduce_to_caput(problem_id: int | str, n: int, k: int | None = None) -> CaputReduction:
    """Recover a problem's count through head machinery and compare.

    Problem 4 is the empty-head LOOSE count; problem 5 the monadic-head LOOSE
    count; problems 1-3 count the possible heads of exponent k by listing
    them, refused past the "reduction heads" ceiling of C(n, k) heads, where
    solve still gives the count.  Complexiones simpliciter cannot be reached this way: the result
    carries an explicit not-reducible marker, never a fabricated reduction.
    """
    if problem_id != SIMPLICITER and problem_id not in range(1, 7):
        raise InvariantViolationError(
            f"reduction targets problems 1..6 or {SIMPLICITER!r}; the head "
            f"problems 7..12 are the machinery itself, not its clients"
        )
    solved = solve(problem_id, n, k)
    inputs, direct = solved.inputs, solved.count
    if solved.status != "ok":
        return CaputReduction(
            problem_id, inputs, status=solved.status, note=PROBLEM_TITLES[problem_id]
        )
    if problem_id not in _REDUCTIONS:
        return CaputReduction(
            problem_id,
            inputs,
            status="not-reducible",
            direct_count=direct,
            note="the sum over all exponents at once does not arise from any "
            "single invariant head",
        )
    via_caput, head = _REDUCTIONS[problem_id]
    return CaputReduction(
        problem_id,
        inputs,
        status="ok",
        direct_count=direct,
        caput_count=via_caput(n, k, direct),
        head_description=head.format(n=n, k=k),
    )
