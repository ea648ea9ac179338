"""The examples in the docstrings and in the README run and print what they show."""
import contextlib
import doctest
import importlib
import io
import pathlib
import pkgutil
import re
import shlex

import pytest

import combinatoria
from combinatoria.cli import main

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


def test_readme_cli_block():
    # each line runs in-process and exits 0; a trailing comment that is a bare
    # integer is a whitespace-separated token of what the line prints
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    (block,) = [b for b in blocks if b.startswith("combinatoria ")]
    checked = []
    for line in block.splitlines():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
        comment = line.partition("#")[2].strip()
        if comment.isdigit():
            assert comment in out.getvalue().split(), line
            checked.append(comment)
    assert checked, "no line of the block states a count"
