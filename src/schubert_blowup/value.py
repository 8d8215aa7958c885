"""Immutable value types without `dataclasses`.

Each value class lists its fields in `__slots__`, or in `_fields` when the
instance also keeps a `__dict__` for cached properties or a slot derived
from the fields, and writes them once in an explicit `__init__` with
`setfield`, past the frozen `__setattr__` (FlagVariety in `__new__`, which
returns the one instance a kept root system holds).
Importing `dataclasses` (and with it `inspect`) and generating the classes
would cost more than the rest of the package's import, which every CLI
call pays.
"""

from operator import attrgetter

# writes a field in __init__; every later assignment raises
setfield = object.__setattr__


class Value:
    """Frozen fields; equality and hash over the fields, for the same type only.

    Equality needs the exact same type, so the coordinate bases stay
    distinct: Root((1, 0)) != Weight((1, 0)).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        own = cls.__dict__
        cls._fields = own.get("_fields") or own.get("__slots__") or cls._fields
        # the tuple of the fields, or the one field itself
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
