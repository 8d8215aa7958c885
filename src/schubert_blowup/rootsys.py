"""The root-system data that a query runs on: TypeSpec and RootSystem.
Conventions (Bourbaki node numbering, Cartan matrix orientation) are
fixed in conventions.py.

A RootSystem is its TypeSpec: spec is its one field, so equality, hash,
repr and pickle follow the type. Its constructor derives the sparse Cartan
columns, which every Weyl walk, the flag invariants and the closure read.
Its positive_roots are built on first read, by the reflection closure
reference._positive_roots, and cached in its "__dict__" slot. No classify
or cones call reads them: the flag invariants take |R^+|, |R_P^+| and
2 rho_P from conventions' closed forms. So the coordinate bases (Root,
Coroot, Weight), the dense rows, the symmetrizers, the highest root and
the simple coroots live in reference, which caches what it builds there.
build_root_system keeps a type's system from its second build in the
process on (a type built once, as by a sweep, is never kept), in the
register _systems, the one record of what is kept: a kept type's entry
also holds the FlagVariety of each S_P asked of it, up to
flag.FLAGS_PER_SYSTEM, and kept_varieties gives that dict only to
the registered system itself. Nothing is re-checked: selfcheck I1
compares the closure with the root-string closure, an independent second
derivation that lives beside I1 in selfcheck, I2 holds the unique highest
root and F2 the closed forms.
"""

from functools import cached_property

from . import conventions
from .errors import EngineError, wrong_kind
from .value import Value


class TypeSpec(Value):
    __slots__ = ("family", "rank")

    def __init__(self, family, rank):
        conventions.check_type(family, rank)
        set_family, set_rank = self._set
        set_family(self, family)
        set_rank(self, rank)

    def __str__(self):
        return "%s%d" % (self.family, self.rank)


class RootSystem(Value):
    __slots__ = ("spec", "columns", "__dict__")
    _fields = ("spec",)

    def __init__(self, spec):
        if type(spec) is not TypeSpec:
            raise EngineError(wrong_kind("RootSystem", "a TypeSpec", spec))
        set_spec, set_columns = self._set
        set_spec(self, spec)
        # per node: nonzero (row, entry) of its column
        set_columns(self, conventions.cartan_columns(spec.family, spec.rank))

    @property
    def rank(self):
        return self.spec.rank

    @cached_property
    def positive_roots(self):
        """R^+ from one reflection closure, sorted by height, so the last is
        the highest root (selfcheck I1 and I2 hold both). No query reads
        it, so reference, which holds the closure and Root, is imported
        here, on the first read."""
        from .reference import Root, _positive_roots

        roots = sorted(_positive_roots(self), key=lambda t: (sum(t), t))
        return tuple(Root(t) for t in roots)


# (family, rank) -> None after the type's first build, from the second on
# (kept system, {S_P members: FlagVariety}); at most the 64 types to RANK_CAP
_systems = {}


def build_root_system(spec):
    """RootSystem(spec), the root-system datum of a simple type. A type's
    first build is only noted, so a caller that builds each type once keeps
    nothing; from its second build on, the one kept system is returned, with
    the flag varieties built on it."""
    if type(spec) is not TypeSpec:
        raise EngineError(wrong_kind("build_root_system", "a TypeSpec", spec))
    key = (spec.family, spec.rank)
    kept = _systems.get(key)
    if kept is not None:
        return kept[0]
    rs = RootSystem(spec)
    _systems[key] = (rs, {}) if key in _systems else None
    return rs


def kept_varieties(rs):
    """The S_P members -> FlagVariety dict of rs if rs itself is its type's
    kept system, else None: an equal system built apart keeps nothing."""
    kept = _systems.get((rs.spec.family, rs.spec.rank))
    return kept[1] if kept is not None and kept[0] is rs else None
