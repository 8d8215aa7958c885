"""Root-system combinatorics of a simple type.

Everything is exact integer arithmetic over three coordinate bases that
are deliberately kept distinct: simple roots (Root), simple coroots
(Coroot) and fundamental weights (Weight). Conventions (Bourbaki node
numbering, Cartan matrix orientation) are fixed in conventions.py.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import conventions
from .errors import NotARoot, RankMismatch


def _sign_coherent(coeffs):
    return all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


@dataclass(frozen=True)
class TypeSpec:
    family: str
    rank: int

    def __post_init__(self):
        conventions.check_type(self.family, self.rank)

    def __str__(self):
        return "%s%d" % (self.family, self.rank)


@dataclass(frozen=True)
class Root:
    """Integer coordinates over the simple-root basis (alpha_1..alpha_l)."""

    coeffs: tuple

    def __post_init__(self):
        if not _sign_coherent(self.coeffs):
            raise NotARoot("mixed-sign root coordinates %r" % (self.coeffs,))

    @property
    def rank(self):
        return len(self.coeffs)

    def __neg__(self):
        return Root(tuple(-c for c in self.coeffs))

    def is_positive(self):
        return any(c > 0 for c in self.coeffs)


@dataclass(frozen=True)
class Coroot:
    """Integer coordinates over the simple-coroot basis."""

    coeffs: tuple

    def __post_init__(self):
        if not _sign_coherent(self.coeffs):
            raise NotARoot("mixed-sign coroot coordinates %r" % (self.coeffs,))

    @property
    def rank(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class Weight:
    """Integer coordinates over the fundamental-weight basis.

    Coordinate i is <lambda, alpha_i^vee> directly.
    """

    coeffs: tuple

    @property
    def rank(self):
        return len(self.coeffs)

    def __add__(self, other):
        if self.rank != other.rank:
            raise RankMismatch("weight ranks %d vs %d" % (self.rank, other.rank))
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


@dataclass(frozen=True)
class CartanMatrix:
    """C[i][j] = <alpha_j, alpha_i^vee>; diag(symmetrizer) @ C symmetric."""

    entries: tuple

    @property
    def rank(self):
        return len(self.entries)


@dataclass(frozen=True)
class RootSystem:
    spec: TypeSpec
    cartan: CartanMatrix
    positive_roots: tuple
    highest_root: Root
    symmetrizers: tuple

    @property
    def rank(self):
        return self.spec.rank

    def simple_root(self, i):
        """alpha_i, 1-based."""
        return Root(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def simple_coroot(self, i):
        """alpha_i^vee, 1-based."""
        return Coroot(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def contains(self, r):
        if r.rank != self.rank:
            return False
        pos = r if r.is_positive() or not any(r.coeffs) else -r
        return pos in self.positive_roots


def _pair_root_coroot(cartan, coeffs, i):
    # <beta, alpha_i^vee> for beta = sum_j k_j alpha_j (0-based i)
    return sum(cartan[i][j] * k for j, k in enumerate(coeffs))


def _closure(cartan, order):
    """Positive roots by the root-string closure rule.

    Starting from the simple roots, beta + alpha_i is adjoined whenever
    q = p - <beta, alpha_i^vee> > 0, where p is the largest k with
    beta - k*alpha_i still a root. `order` permutes the processing order
    of the simple roots (the result must not depend on it).
    """
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in order:
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    t = tuple(down)
                    if any(c for c in t) and tuple(t) in roots:
                        p += 1
                    else:
                        break
                q = p - _pair_root_coroot(cartan, beta, i)
                if q > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        new.append(t)
        frontier = new
    return roots


def height(r):
    """Sum of simple-root coefficients (negative for negative roots)."""
    return sum(r.coeffs)


def build_root_system(spec):
    """Construct the full root-system datum for a simple type.

    Not memoised, so that the cost of a query does not depend on which
    types earlier queries in the same process built. The closure is run
    twice with different simple-root processing orders as an
    order-insensitivity self-check.
    """
    cartan = conventions.cartan_entries(spec.family, spec.rank)
    order = list(range(spec.rank))
    roots = _closure(cartan, order)
    roots_rev = _closure(cartan, order[::-1])
    assert roots == roots_rev, "closure output depends on processing order"

    positive = tuple(
        Root(t) for t in sorted(roots, key=lambda t: (sum(t), t))
    )
    top_height = height(positive[-1])
    at_top = [r for r in positive if height(r) == top_height]
    assert len(at_top) == 1, "highest root not unique"

    return RootSystem(
        spec=spec,
        cartan=CartanMatrix(cartan),
        positive_roots=positive,
        highest_root=at_top[0],
        symmetrizers=conventions.symmetrizer(spec.family, spec.rank),
    )


def pairing(w, c):
    """<lambda, beta^vee> as a plain dot product of coordinates."""
    if w.rank != c.rank:
        raise RankMismatch("weight rank %d vs coroot rank %d" % (w.rank, c.rank))
    return sum(a * b for a, b in zip(w.coeffs, c.coeffs))


def coroot_of(r, rs):
    """The coroot 2*beta/(beta,beta) in simple-coroot coordinates.

    c_i = k_i * (alpha_i, alpha_i) / (beta, beta); always integral for
    roots of a crystallographic system.
    """
    if not rs.contains(r):
        raise NotARoot("%r is not a root of %s" % (r.coeffs, rs.spec))
    d = rs.symmetrizers
    C = rs.cartan.entries
    k = r.coeffs
    norm = sum(
        k[i] * k[j] * d[i] * C[i][j] for i in range(rs.rank) for j in range(rs.rank)
    )
    coeffs = []
    for i in range(rs.rank):
        c = Fraction(2 * k[i] * d[i], norm)
        assert c.denominator == 1, "non-integral coroot coefficient"
        coeffs.append(int(c))
    return Coroot(tuple(coeffs))


def root_as_weight(r, rs):
    """Change of basis: weight coordinate i is sum_j C[i][j] * k_j."""
    if r.rank != rs.rank:
        raise RankMismatch("root rank %d vs system rank %d" % (r.rank, rs.rank))
    C = rs.cartan.entries
    return Weight(
        tuple(sum(C[i][j] * r.coeffs[j] for j in range(rs.rank)) for i in range(rs.rank))
    )


def rho(rs):
    """Half-sum of positive roots: the all-ones weight vector."""
    return Weight((1,) * rs.rank)
