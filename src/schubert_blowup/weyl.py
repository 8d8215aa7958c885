"""Weyl group words and their exact action on the three coordinate bases.

Words are sequences of 1-based simple-reflection indices applied right to
left: act([i1, ..., ik], x) = s_{i1}(s_{i2}(...s_{ik}(x))). Every walk
reads RootSystem.columns and checks a word's letters once, up front.
longest_element and enumerate_coset_reps walk weight orbits on integer
lists instead of replaying words. length reads one replay of the word on
rho, whose signed count of steps is the length; flag.schubert_codim reads
W^P membership from the same replay.
flag.py needs no Weyl word for its invariants: they are closed forms, which
selfcheck F2 compares with the action of w_{0,P}.
"""

from operator import mul

from .errors import EngineError
from .rootsys import Coroot, Root, Weight
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


def _check_letters(letters, rank):
    """The one letter check, once per word; names the first letter outside 1..rank."""
    if letters and not (1 <= min(letters) and max(letters) <= rank):
        bad = next(i for i in letters if not 1 <= i <= rank)
        raise EngineError("reflection index %d outside 1..%d" % (bad, rank))


def check_parabolic(par, rank):
    """The one check that every node of S_P lies in 1..rank."""
    if not all(1 <= i <= rank for i in par.members):
        raise EngineError("parabolic indices %r outside 1..%d" % (sorted(par.members), rank))


def _reflect_weight(i, w, rs):
    coeffs = list(w.coeffs)
    for j, a in rs.columns[i - 1]:
        coeffs[j] -= w.coeffs[i - 1] * a
    return Weight(tuple(coeffs))


def _reflect_root(i, r, rs):
    coeffs = list(r.coeffs)
    coeffs[i - 1] -= sum(map(mul, rs.cartan[i - 1], coeffs))
    return Root(tuple(coeffs))


def _reflect_coroot(i, c, rs):
    coeffs = list(c.coeffs)
    coeffs[i - 1] -= sum(a * coeffs[j] for j, a in rs.columns[i - 1])
    return Coroot(tuple(coeffs))


_REFLECT = {Weight: _reflect_weight, Root: _reflect_root, Coroot: _reflect_coroot}


def act(word, x, rs):
    """Apply the word right to left to a Weight, Root or Coroot."""
    f = _REFLECT.get(type(x))
    if f is None:
        raise EngineError("act needs a Weight, Root or Coroot, not %s" % type(x).__name__)
    if x.rank != rs.rank:
        raise EngineError("%s rank %d vs system rank %d"
                          % (type(x).__name__.lower(), x.rank, rs.rank))
    _check_letters(word.letters, rs.rank)
    for i in reversed(word.letters):
        x = f(i, x, rs)
    return x


def reflect_weight(i, w, rs):
    """s_i(lambda) = lambda - <lambda, alpha_i^vee> alpha_i."""
    return act(WeylWord((i,)), w, rs)


def reflect_root(i, r, rs):
    """s_i(beta) = beta - <beta, alpha_i^vee> alpha_i."""
    return act(WeylWord((i,)), r, rs)


def reflect_coroot(i, c, rs):
    """Dual action: s_i(beta^vee) = beta^vee - <alpha_i, beta^vee> alpha_i^vee."""
    return act(WeylWord((i,)), c, rs)


def _replay(word, rs):
    """(v, l): v = w^{-1}(rho) as a list of weight coordinates, l = l(w).

    The letters act left to right on rho. Appending s_i to a prefix u adds
    1 to its length iff (u(alpha_i), rho) = d_i v_i > 0 for v = u^{-1}(rho),
    and subtracts 1 otherwise; v_i is never 0 (Humphreys, Reflection Groups
    and Coxeter Groups, 1.6-1.7), so l is exact on non-reduced words too.
    """
    cols = rs.columns
    _check_letters(word.letters, len(cols))
    v = [1] * len(cols)
    l = 0
    for i in word.letters:
        c = v[i - 1]
        l += 1 if c > 0 else -1
        for j, a in cols[i - 1]:
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
    cols = rs.columns
    members = sorted(i - 1 for i in par.members)
    letters = []
    v = [1] * rs.rank
    while True:
        for i in members:
            c = v[i]
            if c > 0:
                letters.append(i + 1)
                for j, a in cols[i]:
                    v[j] -= c * a
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
    cols = rs.columns
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
