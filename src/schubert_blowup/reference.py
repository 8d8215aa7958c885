"""The reference layer: the code that no classify or cones query runs,
which the self-checks, the closed-form laws and the tests read.

- Root, Coroot and Weight, the three coordinate bases, kept distinct on
  one private base, _Coords, that holds their rank and checks;
- cartan, _symmetrizers, highest_root and simple_coroot, the facts of a
  RootSystem beyond its columns: the first two are built on first read
  and cached in the system's "__dict__" slot;
- _positive_roots, the reflection closure of R^+, which
  RootSystem.positive_roots imports on its first read;
- height, pairing, coroot_of, root_as_weight, rho, and act, the Weyl
  action on a Weight, Root or Coroot;
- anticanonical_weight, from flag's closed form, and the cone test is_nef
  and is_ample, against the Mori generators of blowup._cones.

The queries need none of it (the flag invariants are closed forms, weyl
replays words on plain lists, and classify reads the least beta), so only
selfcheck and special import this module, and the package imports it on
the first read of one of its public names. A fresh interpreter with no
bytecode cached compiles every module it imports, so what a classify or
cones call never loads costs it nothing.

Words are sequences of 1-based simple-reflection indices applied right to
left: act([i1, ..., ik], x) = s_{i1}(s_{i2}(...s_{ik}(x))). act checks its
input once, walks one list of its coordinates and builds one value, whose
signs a Root or Coroot checks once. On a Root it reads the dense Cartan
rows, as do coroot_of, root_as_weight and the closure.
"""

from operator import mul

from .blowup import DivisorClass, _cones, intersect
from .conventions import _diagram
from .errors import EngineError, InvariantViolation, wrong_kind
from .flag import FlagVariety, _invariants_of
from .rootsys import RootSystem
from .value import Value
from .weyl import _letters


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


def cartan(rs):
    """The dense rows of rs, C[i][j] = <alpha_j, alpha_i^vee>: the transpose
    of rs.columns, which only the pairings of a Root read."""
    if type(rs) is not RootSystem:
        raise EngineError(wrong_kind("cartan", "a RootSystem", rs))
    rows = rs.__dict__.get("cartan")
    if rows is None:
        rows = [[0] * rs.rank for _ in range(rs.rank)]
        for j, col in enumerate(rs.columns):
            for i, a in col:
                rows[i][j] = a
        rows = rs.__dict__["cartan"] = tuple(map(tuple, rows))
    return rows


def _symmetrizers(rs):
    """d = (d_1, ..., d_l), the smallest positive integers making
    diag(d) @ C symmetric, so that (alpha_i, alpha_j) = d_i * C[i][j] is the
    invariant form and (alpha_i, alpha_i) = 2 d_i: the multiplicity m of
    the bond of conventions._diagram on the long end's side of it, 1
    elsewhere."""
    d = rs.__dict__.get("symmetrizers")
    if d is None:
        n, bond = rs.rank, _diagram(rs.spec.family, rs.rank)[3]
        d = (1,) * n
        if bond is not None:
            long, short, m = bond
            long_side = range(1, long + 1) if long < short else range(long, n + 1)
            d = tuple(m if i in long_side else 1 for i in range(1, n + 1))
        rs.__dict__["symmetrizers"] = d
    return d


def highest_root(rs):
    """The last of rs.positive_roots, which are sorted by height (selfcheck
    I2 holds that it is the only root of its height)."""
    if type(rs) is not RootSystem:
        raise EngineError(wrong_kind("highest_root", "a RootSystem", rs))
    return rs.positive_roots[-1]


def simple_coroot(rs, i):
    """alpha_i^vee, 1-based."""
    if type(rs) is not RootSystem:
        raise EngineError(wrong_kind("simple_coroot", "a RootSystem", rs))
    return Coroot(tuple(1 if j == i - 1 else 0 for j in range(rs.rank)))


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
    frontier = [(tuple(int(j == i) for j in range(rank)), [row[i] for row in cartan(rs)])
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
    if type(r) is not Root:
        raise EngineError(wrong_kind("height", "a Root", r))
    return sum(r.coeffs)


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
    if type(r) is not Root or type(rs) is not RootSystem:
        raise EngineError(wrong_kind("coroot_of", "a Root and a RootSystem", r, rs))
    k = r.coeffs
    # a Root is sign-coherent: its absolute values are the positive root, if any
    if r.rank != rs.rank or Root(tuple(map(abs, k))) not in rs.positive_roots:
        raise EngineError("%r is not a root of %s" % (k, rs.spec))
    d = _symmetrizers(rs)
    C = cartan(rs)
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
    if type(r) is not Root or type(rs) is not RootSystem:
        raise EngineError(wrong_kind("root_as_weight", "a Root and a RootSystem", r, rs))
    r.check_rank(rs)
    C = cartan(rs)
    return Weight(
        tuple(sum(C[i][j] * r.coeffs[j] for j in range(rs.rank)) for i in range(rs.rank))
    )


def rho(rs):
    """Half-sum of positive roots: the all-ones weight vector."""
    if type(rs) is not RootSystem:
        raise EngineError(wrong_kind("rho", "a RootSystem", rs))
    return Weight((1,) * rs.rank)


def act(word, x, rs):
    """Apply the word right to left to a Weight, Root or Coroot."""
    kind = type(x)
    if kind not in (Weight, Root, Coroot):
        raise EngineError(wrong_kind("act", "a Weight, Root or Coroot", x))
    if type(rs) is not RootSystem:
        raise EngineError(wrong_kind("act", "a RootSystem", rs))
    cols = rs.columns
    x.check_rank(rs)
    letters, v = reversed(_letters(word, rs.rank)), list(x.coeffs)
    if kind is Weight:
        # s_i(lambda) = lambda - lambda_i alpha_i, alpha_i being Cartan column i
        for i in letters:
            c = v[i - 1]
            for j, a in cols[i - 1]:
                v[j] -= c * a
    elif kind is Root:
        # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, the pairing from Cartan row i
        rows = cartan(rs)
        for i in letters:
            v[i - 1] -= sum(map(mul, rows[i - 1], v))
    else:
        # s_i(beta^vee) = beta^vee - <alpha_i, beta^vee> alpha_i^vee, alpha_i being column i
        for i in letters:
            v[i - 1] -= sum(a * v[j] for j, a in cols[i - 1])
    return kind(tuple(v))


def anticanonical_weight(fv):
    """rho + w_{0,P}(rho) = 2 rho - 2 rho_P, built anew from flag's closed
    form on each call; lies in X^*(P)."""
    _invariants_of(fv, "anticanonical_weight")  # the one check of the argument
    return Weight(tuple(1 + x for x in fv._closed_form()[0]))


def _mori(fv, d, call):
    """fv's Mori tuple, for is_nef and is_ample to pair d with, once the
    kinds of both are checked."""
    if type(fv) is not FlagVariety or type(d) is not DivisorClass:
        raise EngineError(wrong_kind(call, "a FlagVariety and a DivisorClass", fv, d))
    return _cones(fv)[1]


def is_nef(fv, d):
    """Kleiman's criterion: d pairs >= 0 with every Mori generator of fv."""
    return all(intersect(d, k) >= 0 for k in _mori(fv, d, "is_nef"))


def is_ample(fv, d):
    """d pairs > 0 with every Mori generator of fv."""
    return all(intersect(d, k) > 0 for k in _mori(fv, d, "is_ample"))
