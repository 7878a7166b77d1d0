"""The base of poet's runtime records: plain classes whose repr and equality read their fields.

A record class lists its fields in `__slots__`, after those of the record it
extends, and its own `__init__` sets every one of them, inherited ones
included. Its repr is `Name(field=value, ...)`, and it equals a record of the
same class whose fields are equal. A `Record` is unhashable; a `FrozenRecord`
refuses assignment and hashes by its fields. Nothing here generates code.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()  # what repr and == read, in order; a class may leave one out

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" not in vars(cls):
            cls._fields = cls._fields + vars(cls).get("__slots__", ())

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class FrozenRecord(Record):
    __slots__ = ()

    def _init(self, *values: object) -> None:
        """Set the fields, in order, past the refusing `__setattr__`."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
