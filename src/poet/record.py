"""The base of poet's runtime records: classes that declare their fields once, in `__slots__`.

A record class lists its fields in `__slots__`, after those of the record it
extends, and writes no `__init__`: this base compiles one for it when the class
is created, with the builtin `compile`. It takes the inherited fields first,
then the class's own, and sets each with one plain store, as one written by
hand would. A field named in the class's `_defaults` takes that value by
default, so Python itself refuses a class that puts a defaulted field before a
required one; one named in `_fresh` takes `None`, and stores a new empty list,
dict or set in its place. Its repr is `Name(field=value, ...)`, its
`to_json()` holds each field under its own name, and it equals a record of the
same class whose fields are equal. A `Record` is unhashable; a `FrozenRecord`
refuses assignment, which its `__init__` goes past, and hashes by its fields.
"""

from __future__ import annotations

# What builds each kind of `_fresh` default: a literal, not a call, where there is one.
_EMPTY = {list: "[]", dict: "{}", set: "set()"}


class Record:
    __slots__ = ()
    _params: tuple[str, ...] = ()  # what __init__ takes, in order
    _fields: tuple[str, ...] = ()  # what repr, == and to_json read, in order; a class may leave one out
    _defaults: dict[str, object] = {}  # the default of each parameter that has one
    _fresh: dict[str, type] = {}  # each parameter whose default is a new empty list, dict or set
    _store = "self.{0} = {1}"  # how the generated __init__ sets field {0} to {1}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = vars(cls)
        slots = own.get("__slots__", ())
        if "_fields" not in own:
            cls._fields = cls._fields + slots
        # A class that declares no slots keeps a __dict__, and takes the fields it shows.
        cls._params = cls._params + slots if "__slots__" in own else cls._fields
        if "__init__" not in own and cls._params:
            cls.__init__ = _compile_init(cls)

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

    def to_json(self) -> dict:
        return {name: _json(getattr(self, name)) for name in self._fields}


def _json(value: object) -> object:
    """`value` as JSON data: a record as its `to_json()`, a tuple as a list of converted items,
    a set as its sorted list and a dict with each value converted. Any other value is returned
    as it is."""
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    return value


def _compile_init(cls: type[Record]):
    """`def __init__(self, a, b=_defaults['b'], c=None): self.a = a; self.b = b; self.c = [] if c is None else c`
    for `cls`'s parameters, with `c` a `_fresh` list."""
    fresh, names = cls._fresh, cls._params
    params = [f"{n}=None" if n in fresh else f"{n}=_defaults[{n!r}]" if n in cls._defaults else n for n in names]
    values = [f"{_EMPTY[fresh[n]]} if {n} is None else {n}" if n in fresh else n for n in names]
    body = "".join([f"\n    {cls._store.format(n, value)}" for n, value in zip(names, values)])
    source = f"def __init__({', '.join(['self', *params])}):{body}\n"
    namespace = {"__name__": cls.__module__, "_defaults": cls._defaults, "_set": object.__setattr__}
    exec(compile(source, f"<record {cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class FrozenRecord(Record):
    __slots__ = ()
    _store = "_set(self, {0!r}, {1})"  # past the refusing __setattr__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
