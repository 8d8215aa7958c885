"""Immutable value types without `dataclasses`.

Every value class keeps one storage rule. It declares its fields in
`__slots__` and writes each once, in an explicit `__init__`, past the
frozen `__setattr__`: a class that declares non-empty `__slots__` gets
`_set`, the `__set__` of each of its slot descriptors in `__slots__`
order, and its `__init__` unpacks `self._set` and writes each slot through
its setter. A hot path that builds a record from data it has checked
skips that frame: it writes `object.__new__(cls)` through those setters,
bound once per module, and `__init__` stays for every other caller. A
class with cached facts (RootSystem, FlagVariety) adds a "__dict__" slot
for them, which is no field and has no setter; a class with a slot
derived from its fields (CurveClass's support, RootSystem's columns)
names its fields in `_fields`, and equality, hash, repr and pickle read
those alone. Importing `dataclasses` (and with it `inspect`) and
generating the classes would cost more than the rest of the package's
import, which every CLI call pays.
"""

from operator import attrgetter


class Value:
    """Frozen fields; equality and hash over the fields, for the same type only.

    Equality needs the exact same type, so the coordinate bases stay
    distinct: Root((1, 0)) != Weight((1, 0)).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        own = cls.__dict__
        # a "__dict__" slot holds cached facts: neither a field nor set
        slots = tuple(name for name in own.get("__slots__", ()) if name != "__dict__")
        cls._fields = own.get("_fields") or slots or cls._fields
        # the tuple of the fields, or the one field itself
        cls._key = attrgetter(*cls._fields)
        # the setters that the class's __init__ writes its own slots through
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
