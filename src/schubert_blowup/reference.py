"""The reference layer: root-system and Weyl-group code that no classify or
cones query runs, and that the self-checks and the closed-form laws read.

- _positive_roots, the reflection closure of R^+, which
  RootSystem.positive_roots imports on its first read;
- height, pairing, coroot_of, root_as_weight and rho, on the three
  coordinate bases of rootsys;
- act, a Weyl word applied to a Weight, Root or Coroot.

The queries need none of it: the flag invariants take |R^+|, |R_P^+| and
2 rho_P from the closed forms of conventions, and weyl replays words on
plain lists. So only selfcheck and special import this module, and the
package imports it when one of these names is first read from it. A
fresh interpreter with no bytecode cached compiles every module it
imports, so what a classify or cones call never loads costs it nothing.

Words are sequences of 1-based simple-reflection indices applied right to
left: act([i1, ..., ik], x) = s_{i1}(s_{i2}(...s_{ik}(x))). act checks its
input once, walks one list of its coordinates and builds one value, whose
signs a Root or Coroot checks once. On a Root it reads the dense Cartan
rows, RootSystem.cartan, as do coroot_of, root_as_weight and the closure.
"""

from operator import mul

from .errors import EngineError, InvariantViolation, wrong_kind
from .rootsys import Coroot, Root, RootSystem, Weight
from .weyl import _letters


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
    if not rs.contains(r):
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
    if type(rs) is not RootSystem:
        raise EngineError(wrong_kind("root_as_weight", "a Root and a RootSystem", r, rs))
    r.check_rank(rs)
    C = rs.cartan
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
        for i in letters:
            v[i - 1] -= sum(map(mul, rs.cartan[i - 1], v))
    else:
        # s_i(beta^vee) = beta^vee - <alpha_i, beta^vee> alpha_i^vee, alpha_i being column i
        for i in letters:
            v[i - 1] -= sum(a * v[j] for j, a in cols[i - 1])
    return kind(tuple(v))
