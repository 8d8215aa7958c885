"""Weyl group words and their exact action on the three coordinate bases.

Words are sequences of 1-based simple-reflection indices applied right to
left: act([i1, ..., ik], x) = s_{i1}(s_{i2}(...s_{ik}(x))). act checks its
input once, walks one list of its coordinates and builds one value, whose
signs a Root or Coroot checks once. Every walk reads RootSystem.columns
and checks a word's letters once, up front.
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
    """The subset S_P of simple-root indices whose reflections lie in W_P,
    kept as a frozenset, so a repeated node counts once."""

    __slots__ = ("members",)

    def __init__(self, members):
        try:
            members = frozenset(members)
        except TypeError:  # not iterable, or a node that is unhashable
            raise EngineError("parabolic indices %r are not a set of nodes" % (members,)) from None
        setfield(self, "members", members)

    @staticmethod
    def of(indices):
        return ParabolicSubset(indices)

    def complement(self, rank):
        return tuple(i for i in range(1, rank + 1) if i not in self.members)


def _letters(word, rank):
    """The letters of a WeylWord, checked once per word; names the first letter
    that is not an int in 1..rank (a bool counts, as in check_parabolic)."""
    try:
        letters = word.letters
        # a float or Fraction among ints makes the sum one too
        ok = not letters or (1 <= min(letters) and max(letters) <= rank
                             and type(sum(letters)) is int)
    except AttributeError:  # not a WeylWord; a try costs nothing until it raises
        raise EngineError("a word must be a WeylWord, not %s" % type(word).__name__) from None
    except TypeError:  # a letter that neither compares nor adds with an int
        ok = False
    if not ok:
        bad = next(i for i in letters if not (isinstance(i, int) and 1 <= i <= rank))
        raise EngineError("reflection index %r outside 1..%d" % (bad, rank))
    return letters


def check_parabolic(par, rank):
    """The one check that every node of S_P is an int in 1..rank."""
    if not all(isinstance(i, int) and 1 <= i <= rank for i in par.members):
        # ints in order, then any other node by its repr: mixed types never compare
        nodes = sorted(par.members, key=lambda i: (0, i) if isinstance(i, int) else (1, repr(i)))
        raise EngineError("parabolic indices %r outside 1..%d" % (nodes, rank))


def act(word, x, rs):
    """Apply the word right to left to a Weight, Root or Coroot."""
    kind = type(x)
    if kind not in (Weight, Root, Coroot):
        raise EngineError("act needs a Weight, Root or Coroot, not %s" % kind.__name__)
    x.check_rank(rs)
    letters, cols, v = reversed(_letters(word, rs.rank)), rs.columns, list(x.coeffs)
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


def _replay(word, rs):
    """(v, l): v = w^{-1}(rho) as a list of weight coordinates, l = l(w).

    The letters act left to right on rho. Appending s_i to a prefix u adds
    1 to its length iff (u(alpha_i), rho) = d_i v_i > 0 for v = u^{-1}(rho),
    and subtracts 1 otherwise; v_i is never 0 (Humphreys, Reflection Groups
    and Coxeter Groups, 1.6-1.7), so l is exact on non-reduced words too.
    """
    cols = rs.columns
    v = [1] * len(cols)
    l = 0
    for i in _letters(word, len(cols)):
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
