"""Which modules generate arrangements.

``caput`` holds the library's one arrangement generator, the head listing,
which vicinity_classes and the witnesses of problems 4 and 5 read too.  The
oracle keeps its own walk of S_n, so that it shares no code with what it
checks.  No other module may call ``itertools.permutations``.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "combinatoria"


def _uses_permutations(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "permutations" for alias in node.names):
                return True
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "permutations"
            and isinstance(node.value, ast.Name)
            and node.value.id == "itertools"
        ):
            return True
    return False


def test_only_caput_and_the_oracle_call_itertools_permutations():
    paths = sorted(SRC.glob("*.py"))
    users = [path.name for path in paths if _uses_permutations(ast.parse(path.read_text()))]
    assert users == ["caput.py", "oracle.py"]
