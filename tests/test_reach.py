"""Every public callable is reached by a CLI request or an oracle claim, or
is on the allowlist below with its reason.

A public callable is each function in ``combinatoria.__all__`` and
``combinatoria.oracle.__all__``, and each method or property that one of
their classes defines in its own body, dunders included but not
``__init__``.  The requests of ``test_cli_corpus`` run in-process, with a
small ``verify_all``, under ``sys.setprofile``, which records the code of
every Python call.

The whole corpus under the profiler takes about 6 s, so the test runs every
seventh request of each group, plus every usage error.  Seven is prime to
the three formats, so this takes every leaf in every format.  When the
subset was chosen, it reached the same public callables as the whole corpus.
"""
import functools
import inspect
import sys

import combinatoria
from combinatoria import oracle

from test_cli_corpus import FORMATS, _answer, corpus, table_leaves

STRIDE = 7

# What no request and no claim reaches, kept for the reason given.
ALLOWLIST = {
    # the value contract
    "Permutation.__call__": "p(i) reads the permutation as a map, as its docstring shows",
    "Permutation.__repr__": "the repr Permutation((2, 1)) that the README names",
    "Permutation.__str__": "the one-line text that the README session prints",
    "ClassOrder.__post_init__": "checks a hand-built ClassOrder; class_order builds trusted",
    # names the README or an acceptance criterion uses
    "identity": "the unit of compose, in the README's list of degree-capped calls",
    "CycleType.from_cycle_lengths": "in the README's list of degree-capped calls",
    "CaputSpec.fixing_symbols": "the README session and acceptance criterion 5 pin heads with it",
    "TreeCoordinate.swapped": "acceptance criterion 9 shows (a, b) and (b, a) are two points",
    # paper content that is still to be put under an oracle claim
    "satisfies": "tests one permutation against a head, the paper's caput (Section IV)",
    "is_caput_of": "problem 10: containment of a smaller variation in a larger one",
    "canonical_vicinity": "the canonical rotation that names a vicinity class (problem 5)",
    "cycle_decomposition": "the cycles of a permutation (Section III), as Cycle values",
}


def public_callables() -> dict[str, object]:
    """Each public callable's name and the code object a call of it runs."""
    found = {}
    for module in (combinatoria, oracle):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found[name] = obj.__code__
            elif isinstance(obj, type):
                source = sys.modules[obj.__module__].__file__
                for attr, member in vars(obj).items():
                    function = member.fget if isinstance(member, property) else member
                    function = getattr(function, "__func__", function)
                    # the class's own body, not code a decorator generated
                    if (
                        attr != "__init__"
                        and inspect.isfunction(function)
                        and function.__code__.co_filename == source
                    ):
                        found[f"{name}.{attr}"] = function.__code__
    return found


def reach_requests() -> list[list[str]]:
    groups = corpus()
    picked = [argv for group in groups.values() for argv in group[::STRIDE]]
    return picked + [argv for argv in groups["usage"] if argv not in picked]


@functools.lru_cache(maxsize=1)
def unreached() -> frozenset[str]:
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in reach_requests():
            _answer(argv)
        oracle.verify_all(3)
    finally:
        sys.setprofile(previous)
    return frozenset(name for name, code in public_callables().items() if code not in called)


def test_the_requests_take_every_leaf_in_every_format():
    requests = reach_requests()
    for leaf in table_leaves():
        for fmt in FORMATS:
            assert any(
                argv[: len(leaf)] == leaf and argv[-2:] == ["--format", fmt] for argv in requests
            ), (leaf, fmt)


def test_every_public_callable_is_reached_or_allowlisted():
    stray = sorted(unreached() - ALLOWLIST.keys())
    assert not stray, f"no request or claim reaches {', '.join(stray)}"


def test_every_allowlist_entry_is_a_public_callable_that_nothing_reaches():
    # an entry that a request or a claim now reaches comes off the list
    assert ALLOWLIST.keys() <= public_callables().keys()
    reached = sorted(ALLOWLIST.keys() - unreached())
    assert not reached, f"allowlisted but reached: {', '.join(reached)}"
    assert all(reason.strip() for reason in ALLOWLIST.values())
