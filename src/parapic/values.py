"""Value semantics for the record classes, without `dataclasses`.

A subclass names its fields in ``_fields`` and writes its ``__init__``;
a `Value` stores them with `setfield`, past its frozen guard.  Nothing
here runs ``exec`` or imports `inspect`, as `dataclasses` did at every
start-up.
"""
from __future__ import annotations

from operator import attrgetter

#: store a field past the frozen guard, in the instance's value array
#: (attributes read about twice as slowly from a dict made by ``vars``)
setfield = object.__setattr__


class Record:
    """Field-wise equality and repr; mutable and unhashable."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if cls._fields:  # the fields' values (one field: its value itself)
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable `Record`, hashed over its fields."""

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
