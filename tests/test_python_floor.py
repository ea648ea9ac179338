"""The package uses only what its declared Python floor has.

``requires-python`` is ">=3.10", but the suite may run on a newer Python
only, where a name that 3.10 lacks works as well as any other.  So every
module under ``src/combinatoria/`` is read as a syntax tree and checked for
the standard-library names added after 3.10 that the package is likeliest
to reach for.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "combinatoria"

# module: the names it gained after 3.10, or None when the module is new
NEWER = {
    "operator": {"call"},
    "itertools": {"batched"},
    "typing": {"Self"},
    "enum": {"StrEnum"},
    "tomllib": None,
}
NEWER_BUILTINS = {"ExceptionGroup"}


def newer_names(source: str) -> list[str]:
    """Every use in ``source`` of a name the 3.10 standard library lacks."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)]
    modules = {alias.asname or alias.name: alias.name for node in imports for alias in node.names}
    found = [module for module in modules.values() if module in NEWER and NEWER[module] is None]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in NEWER:
            newer = NEWER[node.module]
            found += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if newer is None or alias.name in newer
            ]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if node.attr in (NEWER.get(module) or ()):
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(node.id)
    return found


def test_the_floor_is_the_one_checked():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject, re.MULTILINE)


@pytest.mark.parametrize(
    "source, names",
    [
        ("import operator\nf = operator.call", ["operator.call"]),
        ("import itertools as it\nit.batched(x, 2)", ["itertools.batched"]),
        ("from typing import Iterator, Self", ["typing.Self"]),
        ("from enum import Enum, StrEnum as S", ["enum.StrEnum"]),
        ("def f():\n    import tomllib", ["tomllib"]),
        ("from tomllib import loads", ["tomllib.loads"]),
        ("raise ExceptionGroup('x', [])", ["ExceptionGroup"]),
        ("import operator, itertools\noperator.itemgetter(1)\nitertools.chain()", []),
        ("call = 1\nbatched = call", []),
    ],
)
def test_the_check_finds_each_newer_name(source, names):
    assert newer_names(source) == names


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_no_module_uses_a_name_newer_than_the_floor(path):
    assert newer_names(path.read_text()) == []
