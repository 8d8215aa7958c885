"""Weyl group words and their exact action on the three coordinate bases.

Words are sequences of 1-based simple-reflection indices applied right to
left: act([i1, ..., ik], x) = s_{i1}(s_{i2}(...s_{ik}(x))).
longest_element and enumerate_coset_reps walk weight orbits one reflection
at a time instead of replaying words. length reads one replay of the word
on rho, whose signed count of steps is the length; flag.schubert_codim
reads W^P membership from the same replay.
flag.py needs no Weyl word for its invariants: they are closed forms, which
selfcheck F2 compares with the action of w_{0,P}.
"""

from operator import mul

from .errors import EngineError
from .rootsys import Coroot, Root, Weight, _cartan_column, rho
from .value import Value, setfield


class WeylWord(Value):
    __slots__ = ("letters",)

    def __init__(self, letters):
        setfield(self, "letters", letters)


class ParabolicSubset(Value):
    """The subset S_P of simple-root indices whose reflections lie in W_P."""

    __slots__ = ("members",)

    def __init__(self, members):
        setfield(self, "members", members)

    @staticmethod
    def of(indices):
        return ParabolicSubset(frozenset(indices))

    def complement(self, rank):
        return tuple(i for i in range(1, rank + 1) if i not in self.members)


def _check_index(i, rank):
    if not (1 <= i <= rank):
        raise EngineError("reflection index %d outside 1..%d" % (i, rank))


def check_parabolic(par, rank):
    """The one check that every node of S_P lies in 1..rank."""
    if not all(1 <= i <= rank for i in par.members):
        raise EngineError("parabolic indices %r outside 1..%d" % (sorted(par.members), rank))


def reflect_weight(i, w, rs):
    """s_i(lambda) = lambda - <lambda, alpha_i^vee> alpha_i."""
    _check_index(i, rs.rank)
    C = rs.cartan
    c = w.coeffs[i - 1]
    return Weight(
        tuple(w.coeffs[j] - c * C[j][i - 1] for j in range(rs.rank))
    )


def reflect_root(i, r, rs):
    """s_i(beta) = beta - <beta, alpha_i^vee> alpha_i."""
    _check_index(i, rs.rank)
    C = rs.cartan
    p = sum(map(mul, C[i - 1], r.coeffs))
    coeffs = list(r.coeffs)
    coeffs[i - 1] -= p
    return Root(tuple(coeffs))


def reflect_coroot(i, c, rs):
    """Dual action: s_i(beta^vee) = beta^vee - <alpha_i, beta^vee> alpha_i^vee."""
    _check_index(i, rs.rank)
    C = rs.cartan
    p = sum(C[j][i - 1] * c.coeffs[j] for j in range(rs.rank))
    coeffs = list(c.coeffs)
    coeffs[i - 1] -= p
    return Coroot(tuple(coeffs))


_REFLECT = {Weight: reflect_weight, Root: reflect_root, Coroot: reflect_coroot}


def act(word, x, rs):
    """Apply the word right to left to a Weight, Root or Coroot."""
    if x.rank != rs.rank:
        raise EngineError("%s rank %d vs system rank %d"
                          % (type(x).__name__.lower(), x.rank, rs.rank))
    f = _REFLECT[type(x)]
    for i in reversed(word.letters):
        x = f(i, x, rs)
    return x


def _replay(word, rs):
    """(v, l): v = w^{-1}(rho) as a list of weight coordinates, l = l(w).

    The letters act left to right on rho. Appending s_i to a prefix u adds
    1 to its length iff (u(alpha_i), rho) = d_i v_i > 0 for v = u^{-1}(rho),
    and subtracts 1 otherwise; v_i is never 0 (Humphreys, Reflection Groups
    and Coxeter Groups, 1.6-1.7), so l is exact on non-reduced words too.
    """
    C = rs.cartan
    v = [1] * len(C)
    l = 0
    cols = {}  # built per letter on first use: short words need few columns
    for i in word.letters:
        col = cols.get(i)
        if col is None:
            _check_index(i, len(C))
            col = cols[i] = _cartan_column(C, i - 1)
        c = v[i - 1]
        l += 1 if c > 0 else -1
        for j, a in col:
            v[j] -= c * a
    return v, l


def length(word, rs):
    """Bruhat length: number of positive roots sent negative."""
    return _replay(word, rs)[1]


def longest_element(par, rs):
    """Longest element w_{0,P} of the parabolic subgroup W_P.

    Greedy ascent: append the smallest i in S_P with w(alpha_i) still
    positive, i.e. with v_i > 0 for v = w^{-1}(rho) (see _replay), and map
    v to s_i(v); it ends with all of them negative, at length |R_P^+|.
    """
    check_parabolic(par, rs.rank)
    members = sorted(par.members)
    letters = []
    v = rho(rs)
    while True:
        for i in members:
            if v.coeffs[i - 1] > 0:
                letters.append(i)
                v = reflect_weight(i, v, rs)
                break
        else:
            return WeylWord(tuple(letters))


def enumerate_coset_reps(par, rs, max_length):
    """All minimal coset representatives of W/W_P up to the length bound.

    Breadth-first over the W-orbit of lambda_P = sum_{a not in S_P} omega_a,
    whose stabiliser is W_P. For w in W^P, s_i w lies in W^P and is one
    longer exactly when coordinate i of w(lambda_P) is positive
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4-2.5), so only
    those steps are taken and every point reached is a new representative.
    Each keeps the first word found, its reduced word that is least when
    compared from the last letter; output sorted by (length, lexicographic
    word).
    """
    check_parabolic(par, rs.rank)
    cols = [_cartan_column(rs.cartan, i) for i in range(rs.rank)]
    start = tuple(0 if i in par.members else 1 for i in range(1, rs.rank + 1))
    words = {start: ()}  # orbit point -> the first word that reached it
    level = [start]
    depth = 0
    while level and depth < max_length:
        nxt = []
        for img in level:
            for i, c in enumerate(img):
                if c > 0:
                    # left multiplication by s_i: prepend the letter
                    img2 = list(img)
                    for j, a in cols[i]:
                        img2[j] -= c * a
                    img2 = tuple(img2)
                    if img2 not in words:
                        words[img2] = (i + 1,) + words[img]
                        nxt.append(img2)
        level = nxt
        depth += 1
    return [WeylWord(w) for w in sorted(words.values(), key=lambda w: (len(w), w))]
