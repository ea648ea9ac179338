"""What a fresh interpreter imports.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``; only
``ClassOrder`` needs it, so importing the package, the CLI or the oracle
must not load it, and the first class listing must.  Its one public name is
``combinatoria.ClassOrder``.  The benchmark's import timings read one ``-X
importtime`` line per layer from ``import combinatoria.cli``, so every layer
it names stays imported there.

The package republishes the ``__all__`` of six library modules, and names
only ``ClassOrder``, ``OracleReport`` and ``verify_all`` itself.
"""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done


IMPORT_SET = """
import sys
import combinatoria, combinatoria.cli, combinatoria.oracle
early = [m for m in ("dataclasses", "inspect") if m in sys.modules]
assert not early, early
assert combinatoria.cli.main(["classes", "--n", "3"]) == 0
assert "dataclasses" in sys.modules

from combinatoria import partitions
t = list(partitions.cycle_types_of(3))[0]
assert type(partitions.class_order(t)) is combinatoria.ClassOrder
assert not hasattr(partitions, "ClassOrder")
"""


def test_dataclasses_loads_with_the_first_class_order():
    _python("-c", IMPORT_SET)


def test_every_benchmark_layer_is_imported_by_the_cli():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    done = _python("-X", "importtime", "-c", "import combinatoria.cli")
    imported = {
        line.split("|")[2].strip() for line in done.stderr.splitlines() if line.count("|") == 2
    }
    expected = {"combinatoria", *(f"combinatoria.{layer}" for layer in tracer.LAYERS)}
    assert expected <= imported, sorted(expected - imported)


REPUBLISHED = ("caput", "errors", "genealogy", "partitions", "perm", "problems")

STAR_IMPORT = """
import combinatoria
namespace = {}
exec("from combinatoria import *", namespace)
missing = [name for name in combinatoria.__all__ if name not in namespace]
assert not missing, missing
"""


def test_the_package_publishes_each_module_all_once():
    import combinatoria

    names = combinatoria.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    expected = {"ClassOrder", "OracleReport", "verify_all"}
    for module in REPUBLISHED:
        expected.update(importlib.import_module(f"combinatoria.{module}").__all__)
    assert set(names) == expected
    for name in names:
        assert getattr(combinatoria, name) is not None, name
    _python("-c", STAR_IMPORT)
