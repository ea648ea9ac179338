"""Which modules generate arrangements, and that none reads the environment.

``caput`` holds the library's one arrangement generator, the head listing,
which vicinity_classes and the witnesses of problems 4 and 5 read too.  The
oracle keeps its own walk of S_n, so that it shares no code with what it
checks.  No other module may call ``itertools.permutations``.

Every answer depends on its arguments alone, the CLI's on argv: no module
reads ``os.environ`` or ``os.getenv``.
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


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENVIRONMENT for alias in node.names):
                return True
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENVIRONMENT
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            return True
    return False


def test_no_module_reads_the_environment():
    paths = sorted(SRC.glob("*.py"))
    readers = [path.name for path in paths if _reads_environment(ast.parse(path.read_text()))]
    assert readers == []
