"""Immutable records whose class names its fields once.

A subclass of `Record` lists its fields, in order, in `_fields`, and gets
from here what `@dataclass(frozen=True)` would generate for it, with no
code generated per class: a constructor that takes the fields in order,
`__match_args__`, equality, printing as `Cls(field=value, ...)`, and a
refusal to assign or delete an attribute.  Fields named in `_ignored` are
left out of equality and hashing, as a binder's type annotation is.

A record's hash is computed once, from a tag of its class and the hashes
of its compared fields, and kept in `_hash`: here when the record is
built, and for a PCF term when it is first hashed (see `pcf._Node`).  The
tag is the class's name: a class object hashes by its address, which
moves from one run to the next.  A field that is a record, or a tuple of
them, hashes by its own `_hash`, so hashing takes the same time at any
depth: the cached-hash half of hash-consing (Filliâtre and Conchon,
"Type-safe modular hash-consing", ML Workshop 2006).  Equality is False as
soon as the hashes differ; between equal hashes it compares field by
field, and so recurses.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]

# How a record's own methods write its attributes, past the refusing
# `__setattr__`.  Unlike writes into `__dict__`, it keeps them in the
# instance's inline values, where reading them is fastest.
_put = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _ignored: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields
        cls._tag = cls.__qualname__
        # The compared fields' values and the tag: a tuple even for one
        # field, so that comparing two keys skips identical parts without
        # a call, as comparing two tuples does.
        cls._key = attrgetter(*[f for f in cls._fields
                                if f not in cls._ignored], "_tag")

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self._tag} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            _put(self, name, value)
        _put(self, "_hash", hash(self._key(self)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return self._hash == other._hash and key(self) == key(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "{}({})".format(self._tag, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
