"""Immutable value types without `dataclasses`.

Each value class lists its fields in `__slots__`, or in `_fields` when the
instance also keeps a `__dict__` for cached properties or a slot derived
from the fields, and writes them once in an explicit `__init__`, past the
frozen `__setattr__`. A class that declares non-empty `__slots__` gets
`_set`, the `__set__` of each of its slot descriptors in `__slots__` order,
and its `__init__` unpacks `self._set` and writes each slot through its
setter: about 60 ns a field on Python 3.11, the unpack included, against
about 100 ns for `object.__setattr__(self, name, v)`, which looks the name
up on the type (a FanoReport is built in 360 ns, not 480).
`setfield` is left to the two classes whose fields live in the instance
`__dict__`, RootSystem and FlagVariety (in `__new__`, which returns the
one instance a kept root system holds).
Importing `dataclasses` (and with it `inspect`) and generating the classes
would cost more than the rest of the package's import, which every CLI
call pays.
"""

from operator import attrgetter

# writes a field of RootSystem or FlagVariety, whose fields live in the
# instance __dict__; every later assignment raises
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
        # the setters that the class's __init__ writes its own slots through
        slots = own.get("__slots__")
        if slots:
            cls._set = tuple(own[name].__set__ for name in slots)

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
