"""Root-system combinatorics of a simple type.

Everything is exact integer arithmetic over three coordinate bases that
are deliberately kept distinct: simple roots (Root), simple coroots
(Coroot) and fundamental weights (Weight), on one private base (_Coords)
that holds their rank and checks. Conventions (Bourbaki node numbering,
Cartan matrix orientation) are fixed in conventions.py.

A RootSystem is its sparse Cartan columns, derived in conventions from the
Dynkin diagram, and its symmetrizers. build_root_system keeps a type's
system from that type's second build in the process on (a type built once,
as by a sweep, is never kept), in the register _systems, the one record of
what is kept: a kept type's entry also holds the FlagVariety of each S_P
asked of it, up to conventions.FLAGS_PER_SYSTEM, and kept_varieties gives
that dict only to the registered system itself.
Every Weyl walk, the flag invariants and the closure read the columns. Two
tables are built on first read and cached on it: cartan, the dense rows,
which only the pairings of a Root read (act on a Root, coroot_of,
root_as_weight, the closure and selfcheck), and positive_roots (and
highest_root), the closure of the simple roots under the height-raising
simple reflections (_positive_roots). No query path reads either: the flag
invariants take |R^+|, |R_P^+| and 2 rho_P from the closed forms of
conventions. One slot, _orbit, holds the W^P index map of the last
weyl.enumerate_coset_reps on the system, which flag.schubert_codim walks. Nothing is re-checked: selfcheck I1 compares the closure with
the root-string closure, an independent second derivation that lives
beside I1 in selfcheck, I2 holds the unique highest root and F2 the closed
forms.
"""

from functools import cached_property

from . import conventions
from .errors import EngineError, InvariantViolation, wrong_kind
from .value import Value, setfield


class TypeSpec(Value):
    __slots__ = ("family", "rank")

    def __init__(self, family, rank):
        conventions.check_type(family, rank)
        set_family, set_rank = self._set
        set_family(self, family)
        set_rank(self, rank)

    def __str__(self):
        return "%s%d" % (self.family, self.rank)


def all_types(max_rank, families=conventions.RANK_BOUNDS):
    """Every TypeSpec of rank at most max_rank, family by family in the
    order of `families`, each by ascending rank. An empty `families`, a
    max_rank outside 1..RANK_CAP and a family given twice are errors."""
    if not families:
        raise EngineError("empty family list")
    if max_rank < 1:
        raise EngineError("max rank must be at least 1, got %d" % max_rank)
    if max_rank > conventions.RANK_CAP:
        raise EngineError("max rank capped at %d for sweeps" % conventions.RANK_CAP)
    out, seen = [], set()
    for fam in families:
        lo, hi = conventions.rank_bounds(fam)
        if fam in seen:
            raise EngineError("family %r given more than once" % (fam,))
        seen.add(fam)
        for r in range(lo, min(hi, max_rank) + 1):
            out.append(TypeSpec(fam, r))
    return out


class _Coords(Value):
    """Integer coordinates over one of the three bases, named in messages by
    the lower-cased type name; a Root or Coroot is sign-coherent, a Weight not."""

    __slots__ = ("coeffs",)
    _sign_coherent = True

    def __init__(self, coeffs):
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
    # no __slots__: the tables built on first read live in the instance __dict__
    _fields = ("spec", "columns", "symmetrizers")

    def __init__(self, spec, columns, symmetrizers):
        setfield(self, "spec", spec)
        setfield(self, "columns", columns)  # per node: nonzero (row, entry) of its column
        setfield(self, "symmetrizers", symmetrizers)

    @property
    def rank(self):
        return self.spec.rank

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
        the highest root (selfcheck I1 and I2 hold both)."""
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


def _positive_roots(rs):
    """The positive roots of rs as coefficient tuples, by the reflection
    closure on rs.columns.

    Every non-simple positive root gamma has some i with
    <gamma, alpha_i^vee> > 0, and s_i(gamma) is a positive root of lower
    height (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 10.2). So R^+ is the closure of the simple roots under
    beta -> s_i(beta) = beta - p*alpha_i, taken where
    p = <beta, alpha_i^vee> < 0. Each root carries its weight coordinates
    (p for every i at once); a step changes them by -p times column i.
    """
    rank, cols = rs.rank, rs.columns
    frontier = [(tuple(int(j == i) for j in range(rank)), [row[i] for row in rs.cartan])
                for i in range(rank)]
    roots = {beta for beta, _ in frontier}
    while frontier:
        new = []
        for beta, wt in frontier:
            for i, p in enumerate(wt):
                if p < 0:
                    up = list(beta)
                    up[i] -= p
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        wt2 = wt[:]
                        for j, c in cols[i]:
                            wt2[j] -= p * c
                        new.append((t, wt2))
        frontier = new
    return roots


def height(r):
    """Sum of simple-root coefficients (negative for negative roots)."""
    try:
        return sum(r.coeffs)
    except AttributeError:
        raise EngineError(wrong_kind("height", "a Root", r)) from None


# (family, rank) -> None after the type's first build, from the second on
# (kept system, {S_P members: FlagVariety}); at most the 64 types to RANK_CAP
_systems = {}


def build_root_system(spec):
    """The root-system datum of a simple type: its sparse Cartan columns and
    symmetrizers; the dense rows and the positive roots are built on their
    first read and cached there. A type's first build is only noted, so a
    caller that builds each type once keeps nothing; from its second build
    on, the one kept system is returned, with the flag varieties built on it."""
    try:
        key = (spec.family, spec.rank)
    except AttributeError:
        raise EngineError(wrong_kind("build_root_system", "a TypeSpec", spec)) from None
    kept = _systems.get(key)
    if kept is not None:
        return kept[0]
    rs = RootSystem(
        spec=spec,
        columns=conventions.cartan_columns(spec.family, spec.rank),
        symmetrizers=conventions.symmetrizer(spec.family, spec.rank),
    )
    _systems[key] = (rs, {}) if key in _systems else None
    return rs


def kept_varieties(rs):
    """The S_P members -> FlagVariety dict of rs if rs itself is its type's
    kept system, else None: an equal system built apart keeps nothing."""
    kept = _systems.get((rs.spec.family, rs.spec.rank))
    return kept[1] if kept is not None and kept[0] is rs else None


def pairing(w, c):
    """<lambda, beta^vee> as a plain dot product of coordinates."""
    if type(w) is not Weight or type(c) is not Coroot:
        raise EngineError(wrong_kind("pairing", "a Weight and a Coroot", w, c))
    if w.rank != c.rank:
        raise EngineError("weight rank %d vs coroot rank %d" % (w.rank, c.rank))
    return sum(a * b for a, b in zip(w.coeffs, c.coeffs))


def coroot_of(r, rs):
    """The coroot 2*beta/(beta,beta) in simple-coroot coordinates.

    c_i = k_i * (alpha_i, alpha_i) / (beta, beta); always integral for
    roots of a crystallographic system.
    """
    try:
        known = rs.contains(r)
    except AttributeError:
        raise EngineError(wrong_kind("coroot_of", "a Root and a RootSystem", r, rs)) from None
    if not known:
        raise EngineError("%r is not a root of %s" % (r.coeffs, rs.spec))
    d = rs.symmetrizers
    C = rs.cartan
    k = r.coeffs
    norm = sum(
        k[i] * k[j] * d[i] * C[i][j] for i in range(rs.rank) for j in range(rs.rank)
    )
    coeffs = []
    for i in range(rs.rank):
        c, rem = divmod(2 * k[i] * d[i], norm)
        if rem:
            raise InvariantViolation(
                "non-integral coroot coefficient of %r in %s" % (k, rs.spec)
            )
        coeffs.append(c)
    return Coroot(tuple(coeffs))


def root_as_weight(r, rs):
    """Change of basis: weight coordinate i is sum_j C[i][j] * k_j."""
    if type(r) is not Root:
        raise EngineError(wrong_kind("root_as_weight", "a Root", r))
    try:
        r.check_rank(rs)
    except AttributeError:
        raise EngineError(wrong_kind("root_as_weight", "a Root and a RootSystem", r, rs)) from None
    C = rs.cartan
    return Weight(
        tuple(sum(C[i][j] * r.coeffs[j] for j in range(rs.rank)) for i in range(rs.rank))
    )


def rho(rs):
    """Half-sum of positive roots: the all-ones weight vector."""
    try:
        return Weight((1,) * rs.rank)
    except AttributeError:
        raise EngineError(wrong_kind("rho", "a RootSystem", rs)) from None
