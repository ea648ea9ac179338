"""The base of the package's frozen value classes.

``Value`` gives a class with ``__slots__`` what a frozen dataclass
generates, without compiling those methods through ``exec`` at every
import: equality by value within one class, a hash equal to ``hash`` of the
field tuple, the ``Name(field=value, ...)`` repr, ``FrozenInstanceError`` on
assignment and deletion, and pickling and copying.  The fields are the
subclass's ``__slots__``, in order; its ``__init__`` checks its arguments
and sets the slots through their descriptors, which the frozen
``__setattr__`` does not stand in front of.

``FrozenInstanceError`` is imported where it is raised, so that no value
class loads ``dataclasses`` (and with it ``inspect``) before an assignment
fails.
"""
from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__slots__
        cls.__match_args__ = fields
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        get = attrgetter(*fields)
        # the field tuple of an instance; attrgetter gives a bare value for one name
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def _fill(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values(self)

    def __setstate__(self, state: tuple) -> None:
        self._fill(*state)
