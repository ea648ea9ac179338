"""The examples in the docstrings and in the README run and print what they show."""
import doctest
import importlib
import pathlib
import pkgutil
import re

import pytest

import combinatoria

MODULES = ["combinatoria"] + [
    f"combinatoria.{info.name}" for info in pkgutil.iter_modules(combinatoria.__path__)
]
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_module_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_session():
    # only the body of the pycon block: the closing fence is no expected output
    (block,) = re.findall(r"^```pycon\n(.*?)^```$", README.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.failed == 0 and result.attempted > 0
