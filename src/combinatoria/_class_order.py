"""``ClassOrder``, the package's one dataclass, and its trusted builder.

It lives apart from ``partitions`` so that ``dataclasses`` (which imports
``inspect``, ``ast``, ``dis`` and ``tokenize``) is loaded the first time a
``ClassOrder`` is needed, not by every interpreter that imports the package.
``combinatoria.ClassOrder``, the class's one public name, resolves to it on
first use, and ``partitions.class_order`` loads ``_trusted_class_order`` on
its first call, through one cached loader.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolationError
from .perm import CycleType


@dataclass(frozen=True)
class ClassOrder:
    """The exact size of one conjugacy class of S_n.

    The package's one dataclass: ``dataclasses.replace`` and the like work
    on it, and on none of the slotted value classes.
    """

    degree: int
    cycle_type: CycleType
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise InvariantViolationError("a conjugacy class has at least one element")


_new_object = object.__new__
_set_field = object.__setattr__


def _trusted_class_order(degree: int, cycle_type: CycleType, order: int) -> ClassOrder:
    """A ClassOrder whose order is already known to be at least 1.

    Sets the three fields as the frozen dataclass's own ``__init__`` does,
    without its keyword handling and ``__post_init__`` check.
    """
    c = _new_object(ClassOrder)
    _set_field(c, "degree", degree)
    _set_field(c, "cycle_type", cycle_type)
    _set_field(c, "order", order)
    return c
