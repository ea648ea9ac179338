"""Results built without re-validation behave exactly like validated ones.

compose, inverse, from_cycles (and so parse_cycles), vicinity_classes,
canonical_vicinity and enumerate_caput build their Permutations from already
checked data without running the constructor's checks, vicinity_classes and
enumerate_caput in batches through perm._trusted_all; cycle_types_of and
partition_to_cycle_type build their CycleTypes, and class_order its
ClassOrder, the same way; TreeCoordinate has a hand-written __init__.  Each
must be indistinguishable from an object built through the public
constructor.  Every trusted builder is a module-level name starting with
``_trusted``, and each has a row in TRUSTED_BUILDERS.

The value classes are slotted classes, not dataclasses; each must behave as
the frozen dataclass it replaced: the same equality, hash, repr, frozenness,
keywords, defaults, pickling and copying.
"""
import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import combinatoria
from combinatoria.caput import CaputSpec, HeadMode, enumerate_caput
from combinatoria.errors import InvariantViolationError
from combinatoria.genealogy import TreeCoordinate, coordinates
from combinatoria.oracle import OracleReport
from combinatoria.partitions import (
    ClassOrder,
    Partition,
    class_order,
    cycle_types_of,
    enumerate_partitions,
    partition_to_cycle_type,
)
from combinatoria.perm import (
    Cycle,
    CycleType,
    Permutation,
    _BATCH,
    _trusted_all,
    compose,
    format_cycles,
    identity,
    inverse,
    parse_cycles,
)
from combinatoria.problems import (
    CaputReduction,
    ProblemResult,
    canonical_vicinity,
    vicinity_classes,
)


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


# -- every trusted builder against the validating constructor --------------------

def _listed_types():
    for n in range(1, 31):
        yield from cycle_types_of(n)


def _permutation_pairs():
    perms = [Permutation((3, 1, 2, 5, 4)), Permutation((2, 1)), Permutation((1,))]
    built = [identity(6), parse_cycles("(13)(2)"), *vicinity_classes(5)]
    built += [compose(p, q) for p in perms for q in perms if p.degree == q.degree]
    built += [inverse(p) for p in perms]
    built += enumerate_caput(CaputSpec(degree=4, head=frozenset({2})))
    return [(p, Permutation(p.image)) for p in built]


def _batched_pairs():
    # every batch edge: no image, one, a batch less one, a batch, a batch and
    # one, two batches and one
    for length in (0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1):
        images = list(itertools.islice(itertools.permutations(range(1, 8)), length))
        built = list(_trusted_all(iter(images)))
        assert [p.image for p in built] == images
        yield from ((p, Permutation(p.image)) for p in built)


# builder: the pairs (an object it built, the same value built by the
# validating constructor) that must be indistinguishable
TRUSTED_BUILDERS = {
    "perm._trusted": _permutation_pairs,
    "perm._trusted_all": _batched_pairs,
    "perm._trusted_cycle_type": lambda: (
        (t, CycleType(t.degree, t.alpha))
        for t in itertools.chain(
            _listed_types(), map(partition_to_cycle_type, enumerate_partitions(12))
        )
    ),
    "_class_order._trusted_class_order": lambda: (
        (c, ClassOrder(degree=c.degree, cycle_type=c.cycle_type, order=c.order))
        for c in map(class_order, _listed_types())
    ),
}


@pytest.mark.parametrize("builder", TRUSTED_BUILDERS)
def test_trusted_objects_are_indistinguishable(builder):
    for trusted, validated in TRUSTED_BUILDERS[builder]():
        assert type(trusted) is type(validated)
        assert trusted == validated and not (trusted != validated)
        assert hash(trusted) == hash(validated)
        assert repr(trusted) == repr(validated)
        pickled = pickle.dumps(trusted, pickle.HIGHEST_PROTOCOL)
        assert pickled == pickle.dumps(validated, pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(pickled) == validated


def test_every_trusted_builder_has_a_row():
    found = set()
    for info in pkgutil.iter_modules(combinatoria.__path__, "combinatoria."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_trusted") and getattr(obj, "__module__", None) == info.name:
                found.add(info.name.removeprefix("combinatoria.") + "." + name)
    assert found == set(TRUSTED_BUILDERS)


def test_a_trusted_class_order_still_checks_its_replacements():
    # dataclasses.replace runs __init__ and so __post_init__ again
    for t in cycle_types_of(6):
        with pytest.raises(InvariantViolationError):
            dataclasses.replace(class_order(t), order=0)
        assert dataclasses.replace(class_order(t), order=1).order == 1


# -- the value classes against the dataclasses they replaced ---------------------

_degree_and_head = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(st.just(n), st.frozensets(st.integers(1, n)))
)
_count = st.none() | st.integers(min_value=0, max_value=10**30)
_text = st.text(alphabet="ab c1=", max_size=6)
REQUIRED = inspect.Parameter.empty

# class: ({field name: its default}, strategy of positional arguments)
VALUE_CLASSES = {
    Permutation: (
        {"image": REQUIRED},
        st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
            lambda image: (tuple(image),)
        ),
    ),
    Cycle: (
        {"points": REQUIRED},
        st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True).map(
            lambda pts: (tuple(pts),)
        ),
    ),
    CycleType: (
        {"degree": REQUIRED, "alpha": REQUIRED},
        st.lists(st.integers(1, 5), min_size=1, max_size=6).map(
            lambda lengths: (
                sum(lengths),
                tuple(lengths.count(i) for i in range(1, sum(lengths) + 1)),
            )
        ),
    ),
    Partition: (
        {"parts": REQUIRED},
        st.lists(st.integers(1, 9), max_size=6).map(
            lambda parts: (tuple(sorted(parts, reverse=True)),)
        ),
    ),
    CaputSpec: (
        {"degree": REQUIRED, "head": frozenset(), "mode": HeadMode.LOOSE},
        st.tuples(_degree_and_head, st.sampled_from(list(HeadMode))).map(
            lambda t: (*t[0], t[1])
        ),
    ),
    TreeCoordinate: (
        {"antecedens": REQUIRED, "sequens": REQUIRED},
        st.tuples(st.integers(0, 2**20), st.integers(0, 20)),
    ),
    ProblemResult: (
        {
            "problem_id": REQUIRED, "inputs": REQUIRED, "count": REQUIRED,
            "witnesses": None, "truncated": False, "status": "ok",
        },
        st.tuples(
            st.integers(1, 12) | st.just("simpliciter"),
            st.dictionaries(st.sampled_from("nk"), st.integers(0, 9)),
            _count,
            st.none(),
            st.booleans(),
            _text,
        ),
    ),
    CaputReduction: (
        {
            "problem_id": REQUIRED, "inputs": REQUIRED, "status": REQUIRED,
            "direct_count": None, "caput_count": None, "head_description": "", "note": "",
        },
        st.tuples(
            st.integers(1, 12),
            st.dictionaries(st.sampled_from("nk"), st.integers(0, 9)),
            _text, _count, _count, _text, _text,
        ),
    ),
    OracleReport: (
        {"claim": REQUIRED, "n_range": REQUIRED, "passed": REQUIRED, "counterexample": None},
        st.tuples(_text, _text, st.just(True), st.none() | _text),
    ),
}


def _twin_dataclass(cls):
    """A frozen dataclass with the same name and fields: the reference."""
    return dataclasses.make_dataclass(cls.__name__, list(VALUE_CLASSES[cls][0]), frozen=True)


def _values(x) -> tuple:
    return tuple(getattr(x, name) for name in VALUE_CLASSES[type(x)][0])


_instances = st.sampled_from(list(VALUE_CLASSES)).flatmap(
    lambda cls: VALUE_CLASSES[cls][1].map(lambda args: cls(*args))
)


# a valid sequence field of each class whose constructor takes one:
# (class, the arguments before it, the sequence)
SEQUENCE_FIELDS = [
    (Permutation, (), (2, 3, 1)),
    (Cycle, (), (3, 1, 2)),
    (CycleType, (3,), (1, 1, 0)),
    (Partition, (), (3, 1)),
]


@pytest.mark.parametrize("cls, before, items", SEQUENCE_FIELDS)
def test_a_list_or_generator_builds_the_tuple_built_value(cls, before, items):
    twin = cls(*before, items)
    source = list(items)
    built = [cls(*before, source), cls(*before, (x for x in items))]
    source.append(source[0])
    source[0] = 0
    for x in built:
        assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)


class TestValueClasses:
    @given(_instances)
    def test_equality_by_value_within_the_class(self, x):
        cls = type(x)
        twin = cls(*_values(x))
        assert twin == x and not (twin != x)
        assert x != _twin_dataclass(cls)(*_values(x))
        assert x != _values(x)

    @given(_instances, _instances)
    def test_unequal_values_are_unequal(self, x, y):
        assert (x == y) == (type(x) is type(y) and _values(x) == _values(y))

    @given(_instances)
    def test_hash_is_the_field_tuple_hash(self, x):
        fields = _values(x)
        try:
            expected = hash(fields)
        except TypeError:  # an inputs dict: unhashable, as with the dataclass
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected == hash(_twin_dataclass(type(x))(*fields))

    @given(_instances)
    def test_repr_is_the_dataclass_repr(self, x):
        if type(x) is Permutation:
            assert repr(x) == f"Permutation({x.image!r})"
        else:
            assert repr(x) == repr(_twin_dataclass(type(x))(*_values(x)))

    def test_repr_examples(self):
        assert repr(CycleType(3, (1, 1, 0))) == "CycleType(degree=3, alpha=(1, 1, 0))"
        assert repr(Cycle((3, 1))) == "Cycle(points=(1, 3))"
        assert repr(CaputSpec(2)) == (
            "CaputSpec(degree=2, head=frozenset(), mode=<HeadMode.LOOSE: 'loose'>)"
        )
        assert repr(Permutation((2, 1))) == "Permutation((2, 1))"

    @given(_instances)
    def test_frozen_on_set_and_delete(self, x):
        for name in VALUE_CLASSES[type(x)][0]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.other = 1

    @given(_instances)
    def test_keyword_construction(self, x):
        names = VALUE_CLASSES[type(x)][0]
        assert type(x)(**dict(zip(names, _values(x)))) == x
        assert type(x).__match_args__ == tuple(names)

    def test_defaults(self):
        for cls, (fields, _) in VALUE_CLASSES.items():
            params = inspect.signature(cls).parameters
            assert {name: p.default for name, p in params.items()} == fields, cls
        assert CaputSpec(degree=4) == CaputSpec(4, frozenset(), HeadMode.LOOSE)
        assert ProblemResult(1, {}, None) == ProblemResult(1, {}, None, None, False, "ok")
        assert CaputReduction(1, {}, "ok") == CaputReduction(1, {}, "ok", None, None, "", "")
        assert OracleReport("c", "1..2", True) == OracleReport("c", "1..2", True, None)

    @given(_instances)
    def test_pickle_and_deepcopy_round_trip(self, x):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(x, protocol))
            assert type(back) is type(x) and back == x
        assert copy.deepcopy(x) == x and copy.copy(x) == x

    def test_class_order_is_the_only_dataclass(self):
        found = set()
        for info in pkgutil.iter_modules(combinatoria.__path__, "combinatoria."):
            module = importlib.import_module(info.name)
            for _, obj in inspect.getmembers(module, inspect.isclass):
                if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                    found.add(obj)
        assert found == {ClassOrder}
