"""Exact combinatorics of permutations, partitions and fixed-head variations.

The package covers the classical combinatorial repertoire of 1666, stated in
modern terms and checked against brute force: the symmetric group with its
cycle structure, conjugacy classes indexed by integer partitions and sized by
the factorial quotient formula, variation counting under a fixed head
(loose, exact or setwise), circle-of-neighbours counting, and the
consanguinity-tree coordinate model.  All arithmetic is exact; every closed
form has an enumeration oracle in `combinatoria.oracle`.

The package republishes the ``__all__`` of `caput`, `errors`, `genealogy`,
`partitions`, `perm` and `problems`, so each public name is written once, in
its module's ``__all__``.  Of the oracle it publishes `OracleReport` and
`verify_all` alone.  `ClassOrder` is resolved on first use, so that
importing the package does not load `dataclasses`; see
`combinatoria._class_order`.
"""

from .caput import *
from .errors import *
from .genealogy import *
from .oracle import OracleReport, verify_all
from .partitions import *
from .perm import *
from .problems import *
from . import caput, errors, genealogy, partitions, perm, problems

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "ClassOrder":
        from ._class_order import ClassOrder

        return ClassOrder
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["ClassOrder", "OracleReport", "verify_all"]
__all__ += caput.__all__
__all__ += errors.__all__
__all__ += genealogy.__all__
__all__ += partitions.__all__
__all__ += perm.__all__
__all__ += problems.__all__
