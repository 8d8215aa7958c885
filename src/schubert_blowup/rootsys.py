"""Root-system combinatorics of a simple type.

Everything is exact integer arithmetic over three coordinate bases that
are deliberately kept distinct: simple roots (Root), simple coroots
(Coroot) and fundamental weights (Weight), on one private base (_Coords)
that holds their rank and checks. Conventions (Bourbaki node numbering,
Cartan matrix orientation) are fixed in conventions.py.

A RootSystem is its TypeSpec: spec is its one field, so equality, hash,
repr and pickle follow the type. Its constructor derives the sparse Cartan
columns, which every Weyl walk, the flag invariants and the closure read.
The rest is built on first read and cached in its "__dict__" slot:
symmetrizers (read only by reference.coroot_of), cartan, the dense rows
(only by the pairings of a Root), and positive_roots and highest_root,
from the reflection closure reference._positive_roots, imported on that
first read. No classify or cones call reads any of them: the flag
invariants take |R^+|, |R_P^+| and 2 rho_P from conventions' closed forms,
so the closure, heights, pairings, coroots and rho live in reference. The
same slot keeps _orbit, which weyl writes, reads and describes.
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


class _Coords(Value):
    """Integer coordinates over one of the three bases, named in messages by
    the lower-cased type name; a Root or Coroot is sign-coherent, a Weight not."""

    __slots__ = ("coeffs",)
    _sign_coherent = True

    def __init__(self, coeffs):
        try:
            # a float or a Fraction coordinate makes the sum one too
            ok = type(coeffs) is tuple and type(sum(coeffs)) is int
        except TypeError:  # a coordinate that does not add with an int
            ok = False
        if not ok:
            raise EngineError("%s coordinates %r are not a tuple of ints"
                              % (type(self).__name__.lower(), coeffs))
        if self._sign_coherent and coeffs and min(coeffs) < 0 < max(coeffs):
            raise EngineError("mixed-sign %s coordinates %r"
                              % (type(self).__name__.lower(), coeffs))
        (set_coeffs,) = self._set
        set_coeffs(self, coeffs)

    @property
    def rank(self):
        return len(self.coeffs)

    def check_rank(self, rs):
        """The one check that the coordinates have the rank of the system rs."""
        if self.rank != rs.rank:
            raise EngineError("%s rank %d vs system rank %d"
                              % (type(self).__name__.lower(), self.rank, rs.rank))


class Root(_Coords):
    """Integer coordinates over the simple-root basis (alpha_1..alpha_l)."""

    __slots__ = ()

    def __neg__(self):
        return Root(tuple(-c for c in self.coeffs))

    def is_positive(self):
        return any(c > 0 for c in self.coeffs)


class Coroot(_Coords):
    """Integer coordinates over the simple-coroot basis."""

    __slots__ = ()


class Weight(_Coords):
    """Integer coordinates over the fundamental-weight basis; coordinate i
    is <lambda, alpha_i^vee> directly."""

    __slots__ = ()
    _sign_coherent = False

    def __add__(self, other):
        if type(other) is not Weight:
            raise EngineError("a Weight adds only to a Weight, not %s" % type(other).__name__)
        if self.rank != other.rank:
            raise EngineError("weight ranks %d vs %d" % (self.rank, other.rank))
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


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
    def symmetrizers(self):
        return conventions.symmetrizer(self.spec.family, self.spec.rank)

    @cached_property
    def cartan(self):
        """The dense rows, C[i][j] = <alpha_j, alpha_i^vee>: the transpose of
        columns, which only pairings of a Root read."""
        rows = [[0] * self.rank for _ in range(self.rank)]
        for j, col in enumerate(self.columns):
            for i, a in col:
                rows[i][j] = a
        return tuple(map(tuple, rows))

    @cached_property
    def positive_roots(self):
        """R^+ from one reflection closure, sorted by height, so the last is
        the highest root (selfcheck I1 and I2 hold both). No query reads
        it, so the closure's module is imported here, on the first read."""
        from .reference import _positive_roots

        roots = sorted(_positive_roots(self), key=lambda t: (sum(t), t))
        return tuple(Root(t) for t in roots)

    @cached_property
    def highest_root(self):
        return self.positive_roots[-1]

    def simple_coroot(self, i):
        """alpha_i^vee, 1-based."""
        return Coroot(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def contains(self, r):
        if r.rank != self.rank:
            return False
        pos = r if r.is_positive() or not any(r.coeffs) else -r
        return pos in self.positive_roots


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
