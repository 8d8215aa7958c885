"""Immutable value types without `dataclasses`: importing it (and `inspect`)
would cost more than the rest of the package, which every CLI call pays.

Every value class keeps one storage rule. It declares its fields in
`__slots__` and writes each once, past the frozen `__setattr__`, through
`_set`: the `__set__` of each of its slot descriptors, in `__slots__`
order. Its `__init__` checks the kinds of its input (EngineError) and
writes the slots; a hot path that builds a record from data it has
checked takes `object.__new__(cls)` and the setters, bound once per
module, instead. A class with cached facts (RootSystem, FlagVariety) adds
a "__dict__" slot for them, no field and with no setter. A class with
other slots names its fields in `_fields`, which alone equality, hash,
repr and pickle read: slots derived from its fields (CurveClass's terms
and e_degree, RootSystem's columns), and two marks, neither a field nor
derived from one, that only a hot path sets (__init__ writes None):
WeylWord's _coset and a cone generator's _dual (weyl, blowup give them).
"""

from operator import attrgetter


class Value:
    """Frozen fields; equality and hash over the fields, for the exact same
    type only, so the coordinate bases stay distinct: Root((1, 0)) != Weight((1, 0))."""

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
