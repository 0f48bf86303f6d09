"""Immutable records whose class names its fields once, and interning.

A subclass of `Record` lists its fields, in order, in `_fields`, and gets
from here what `@dataclass(frozen=True)` would generate for it, with no
code generated per class: a constructor that takes the fields in order,
`__match_args__`, printing as `Cls(field=value, ...)`, and a refusal to
assign or delete an attribute.  It compares and hashes by identity.

A class whose metaclass is `Interned` is hash-consed (Filliâtre and
Conchon, "Type-safe modular hash-consing", ML Workshop 2006): building one
returns the live record of that class with the same field values, of the
same types, if there is one.  So equal records are one object, at any
depth, and the table holds them weakly, so it keeps none alive.
"""

from threading import Lock
from weakref import WeakValueDictionary

__all__ = ["Record", "Interned"]

# How a record's own methods write its attributes, past the refusing
# `__setattr__`.  Unlike writes into `__dict__`, it keeps them in the
# instance's inline values, where reading them is fastest.
_put = object.__setattr__


class Interned(type):
    # (class, *field values, *their types) -> the live record built from
    # them; the types, since `True == 1` but `Lit(True)` is not `Lit(1)`
    table = WeakValueDictionary()
    lock = Lock()       # so that two threads that miss store one record

    def __call__(cls, *values):
        key = (cls, *values, *map(type, values))
        record = Interned.table.get(key)
        if record is None:
            record = super().__call__(*values)
            with Interned.lock:
                record = Interned.table.setdefault(key, record)
        return record


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields
        cls._tag = cls.__qualname__

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self._tag} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            _put(self, name, value)

    def __repr__(self):
        return "{}({})".format(self._tag, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
