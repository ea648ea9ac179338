import contextlib
import io
import json
import sys

import pytest

from combinatoria.cli import main
from combinatoria.errors import CEILINGS, EnumerationTooLargeError, InvariantViolationError
from combinatoria.genealogy import LAYOUT_VERSION, TreeCoordinate, coordinates, personae_count
from combinatoria.partitions import two_part_count

COORDINATE_CEILING = CEILINGS["coordinate listing"].limit


class TestPersonaeCount:
    @pytest.mark.parametrize("gradus,expected", [(0, 1), (3, 32), (10, 11264)])
    def test_doubling_times_ranks(self, gradus, expected):
        assert personae_count(gradus) == expected

    def test_negative_gradus_rejected(self):
        message = "^the n of a power-of-two count 2\\^n must be at least 0, got -1$"
        with pytest.raises(InvariantViolationError, match=message):
            personae_count(-1)

    def test_ranks_are_one_more_than_the_degree(self):
        for gradus in range(20):
            assert personae_count(gradus) == 2**gradus * (gradus + 1)


class TestCoordinates:
    def test_subject_alone_at_the_root(self):
        assert coordinates(0) == [TreeCoordinate(0, 0)]

    def test_last_pair_is_the_last_path_at_the_last_rank(self):
        for gradus in range(13):
            assert coordinates(gradus)[-1] == TreeCoordinate(2**gradus - 1, gradus)

    def test_negative_gradus_rejected(self):
        message = "^the gradus of a coordinate listing must be at least 0, got -1$"
        with pytest.raises(InvariantViolationError, match=message):
            coordinates(-1)

    def test_length_matches_person_count(self):
        for gradus in range(13):
            assert len(coordinates(gradus)) == personae_count(gradus)

    def test_list_is_allocated_at_its_length(self):
        # list() sizes exactly from a length, an odd one rounded up by one
        # slot; a list grown item by item keeps spare slots at nearly every gradus
        for gradus in range(13):
            coords = coordinates(gradus)
            m = len(coords) + len(coords) % 2
            assert sys.getsizeof(coords) == sys.getsizeof([None] * m), gradus

    def test_no_duplicate_pairs_up_to_10(self):
        for gradus in range(11):
            coords = coordinates(gradus)
            assert len({(c.antecedens, c.sequens) for c in coords}) == len(coords)

    def test_lexicographic_pair_order(self):
        coords = [(c.antecedens, c.sequens) for c in coordinates(4)]
        assert coords == sorted(coords)

    def test_ab_precedes_ba(self):
        coords = [(c.antecedens, c.sequens) for c in coordinates(3)]
        index = {pair: i for i, pair in enumerate(coords)}
        for (a, b), i in index.items():
            if a < b and (b, a) in index:
                assert i < index[(b, a)]

    @pytest.mark.parametrize("pair", [("a", 1), (1, "b")])
    def test_coordinate_that_is_no_number_is_refused(self, pair):
        with pytest.raises(InvariantViolationError, match="must be whole numbers, got antecedens"):
            TreeCoordinate(*pair)

    def test_swapped_pair_is_a_different_point(self):
        for c in coordinates(3):
            if c.antecedens != c.sequens:
                assert c.swapped() != c

    def test_ceiling_is_named(self):
        with pytest.raises(EnumerationTooLargeError, match=str(COORDINATE_CEILING)):
            coordinates(COORDINATE_CEILING + 1)

    def test_layout_is_version_tagged(self):
        assert LAYOUT_VERSION == "reconstructed-v1"


def discerptiones(n: int) -> int:
    """The two-part count that ``genealogy discerptiones --n N`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["genealogy", "discerptiones", "--n", str(n), "--format", "json"]) == 0
    return int(json.loads(out.getvalue())["result"]["two_part_count"])


class TestDiscerptionesTwo:
    @pytest.mark.parametrize("n,expected", [(6, 3), (3, 1), (2, 1), (1, 0), (0, 0)])
    def test_values(self, n, expected):
        assert discerptiones(n) == expected

    def test_shared_implementation_with_partitions(self):
        for n in range(201):
            assert discerptiones(n) == two_part_count(n)
