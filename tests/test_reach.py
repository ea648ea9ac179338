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

The same pass pins options: each defaulted parameter of a public callable
must be set to a value other than its default by some request or claim.
An option that nothing sets is deleted, unless its callable is on the
allowlist.

A submodule's ``__all__`` names only the classes and functions it defines:
one public name per callable, and the rule by which the benchmark's tracer
picks each layer's names.  The package ``__init__`` republishes the
``__all__`` of each library module but ``oracle`` with a wildcard import.
"""
import functools
import importlib
import inspect
import pkgutil
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
    # its mode option too: criterion 5 pins an EXACT head with it
    "CaputSpec.fixing_symbols": "the README session and acceptance criterion 5 pin heads with it",
    "TreeCoordinate.swapped": "acceptance criterion 9 shows (a, b) and (b, a) are two points",
    # paper content that is still to be put under an oracle claim
    "satisfies": "tests one permutation against a head, the paper's caput (Section IV)",
    "is_caput_of": "problem 10: containment of a smaller variation in a larger one",
    "canonical_vicinity": "the canonical rotation that names a vicinity class (problem 5)",
    "cycle_decomposition": "the cycles of a permutation (Section III), as Cycle values",
}


def public_callables() -> dict[str, object]:
    """Each public callable's name and the function a call of it runs."""
    found = {}
    for module in (combinatoria, oracle):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found[name] = obj
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
                        found[f"{name}.{attr}"] = function
    return found


def options(function) -> dict[str, object]:
    """Each defaulted parameter of the function and its default."""
    return {
        name: parameter.default
        for name, parameter in inspect.signature(function).parameters.items()
        if parameter.default is not parameter.empty
    }


def reach_requests() -> list[list[str]]:
    groups = corpus()
    picked = [argv for group in groups.values() for argv in group[::STRIDE]]
    return picked + [argv for argv in groups["usage"] if argv not in picked]


@functools.lru_cache(maxsize=1)
def profiled() -> tuple[frozenset[str], frozenset[str]]:
    """The public callables that nothing reaches, and the options that a
    call sets, each as ``name(parameter)``."""
    callables = public_callables()
    watched = {
        function.__code__: (name, defaults)
        for name, function in callables.items()
        if (defaults := options(function))
    }
    called, set_options = set(), set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add(code)
            if code in watched:
                # on entry the locals are the arguments as passed
                name, defaults = watched[code]
                values = frame.f_locals
                for parameter, default in defaults.items():
                    value = values[parameter]
                    if value is not default and value != default:
                        set_options.add(f"{name}({parameter})")

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in reach_requests():
            _answer(argv)
        oracle.verify_all(3)
    finally:
        sys.setprofile(previous)
    unreached = frozenset(
        name for name, function in callables.items() if function.__code__ not in called
    )
    return unreached, frozenset(set_options)


def unreached() -> frozenset[str]:
    return profiled()[0]


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


def test_every_option_is_set_by_a_request_or_claim():
    # __init__ is left out: a value's fields are not options
    set_options = profiled()[1]
    unset = sorted(
        option
        for name, function in public_callables().items()
        if name not in ALLOWLIST
        for option in (f"{name}({parameter})" for parameter in options(function))
        if option not in set_options
    )
    assert not unset, f"no request or claim sets {', '.join(unset)}"


def test_each_submodule_all_names_only_what_it_defines():
    borrowed = sorted(
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(combinatoria.__path__)
        for module in [importlib.import_module(f"combinatoria.{info.name}")]
        for name in getattr(module, "__all__", ())
        if (inspect.isclass(obj := getattr(module, name)) or inspect.isroutine(obj))
        and obj.__module__ != module.__name__
    )
    assert not borrowed, f"defined in another module: {', '.join(borrowed)}"
