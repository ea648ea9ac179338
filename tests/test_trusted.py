"""Results built without re-validation behave exactly like validated ones.

compose, inverse, from_cycles (and so parse_cycles), vicinity_classes,
canonical_vicinity and enumerate_caput build their Permutations from already
checked data without running the constructor's checks; TreeCoordinate has a hand-written __init__.  Each must
be indistinguishable from an object built through the public constructor.
"""
import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combinatoria.caput import CaputSpec, HeadMode, enumerate_caput
from combinatoria.errors import InvariantViolationError
from combinatoria.genealogy import TreeCoordinate, coordinates
from combinatoria.perm import (
    Permutation,
    compose,
    format_cycles,
    identity,
    inverse,
    parse_cycles,
)
from combinatoria.problems import canonical_vicinity, vicinity_classes


def assert_like_validated(p) -> None:
    assert type(p) is Permutation
    validated = Permutation(p.image)
    assert p == validated
    assert hash(p) == hash(validated)
    assert repr(p) == repr(validated)


pairs = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))),
        st.permutations(list(range(1, n + 1))),
    )
)


class TestTrustedPermutations:
    @given(pairs)
    def test_products_and_inverses(self, images):
        p, q = (Permutation(tuple(image)) for image in images)
        cycles = parse_cycles(format_cycles(q))
        assert cycles == q
        for result in (compose(p, q), inverse(p), identity(p.degree), cycles):
            assert_like_validated(result)

    @given(st.permutations(list(range(1, 15))))
    def test_canonical_vicinity(self, image):
        assert_like_validated(canonical_vicinity(image))

    @given(st.integers(min_value=1, max_value=8))
    def test_vicinity_classes(self, n):
        for p in vicinity_classes(n):
            assert_like_validated(p)

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n), st.sets(st.integers(1, n)), st.sampled_from(list(HeadMode))
            )
        )
    )
    def test_caput_stream(self, case):
        n, head, mode = case
        spec = CaputSpec(degree=n, head=frozenset(head), mode=mode)
        for p in itertools.islice(enumerate_caput(spec), 50):
            assert_like_validated(p)


class TestTreeCoordinate:
    def test_still_frozen(self):
        coord = TreeCoordinate(3, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            coord.antecedens = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            coord.sequens = 0

    def test_repr_unchanged(self):
        assert repr(TreeCoordinate(3, 1)) == "TreeCoordinate(antecedens=3, sequens=1)"

    def test_equality_and_hash_by_value(self):
        for coord in coordinates(3):
            twin = TreeCoordinate(coord.antecedens, coord.sequens)
            assert coord == twin and hash(coord) == hash(twin)
        assert TreeCoordinate(1, 2) != TreeCoordinate(2, 1)
        assert len(set(coordinates(4))) == len(coordinates(4))

    def test_keywords_accepted(self):
        assert TreeCoordinate(sequens=2, antecedens=5) == TreeCoordinate(5, 2)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1)])
    def test_negative_rejected(self, pair):
        with pytest.raises(InvariantViolationError):
            TreeCoordinate(*pair)
