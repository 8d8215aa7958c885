"""Weyl group words, their lengths, parabolic longest elements and
minimal coset representatives.

Words are sequences of 1-based simple-reflection indices applied right to
left. Every walk reads RootSystem.columns and checks a word's letters once,
up front (_letters).
longest_element and enumerate_coset_reps walk weight orbits on integer
lists instead of replaying words. length reads one replay of the word on
rho, whose signed count of steps is the length. enumerate_coset_reps keeps
the index map of the W^P orbit it walked on the RootSystem, in one slot
that the next enumeration on that system replaces; flag.schubert_codim
walks a word on that map when it is the map of the variety's S_P, and
reads W^P membership from the replay otherwise.
flag.py needs no Weyl word for its invariants: they are closed forms, which
selfcheck F2 compares with the action of w_{0,P}. That action, act on a
Weight, Root or Coroot, lives in reference, since no classify or cones
call runs it.
"""

from .conventions import RANK_CAP
from .errors import EngineError, wrong_kind
from .value import Value


class WeylWord(Value):
    __slots__ = ("letters",)

    def __init__(self, letters):
        (set_letters,) = self._set
        set_letters(self, letters)


class ParabolicSubset(Value):
    """The subset S_P of simple-root indices whose reflections lie in W_P,
    kept as a frozenset, so a repeated node counts once."""

    __slots__ = ("members",)

    def __init__(self, members):
        try:
            members = frozenset(members)
        except TypeError:  # not iterable, or a node that is unhashable
            raise EngineError("parabolic indices %r are not a set of nodes" % (members,)) from None
        (set_members,) = self._set
        set_members(self, members)

    @staticmethod
    def of(indices):
        return ParabolicSubset(indices)

    def complement(self, rank):
        return tuple(i for i in range(1, rank + 1) if i not in self.members)


# the nodes 1..rank of each rank, which a word's letters must lie in
_NODES = tuple(frozenset(range(1, rank + 1)) for rank in range(RANK_CAP + 1))


def _letters(word, rank):
    """The letters of a WeylWord, checked once per word; names the first letter
    that is not an int in 1..rank (a bool counts, as in check_parabolic)."""
    try:
        letters = word.letters
        # a float or Fraction equal to a node is in the set, but makes the sum one too
        ok = _NODES[rank].issuperset(letters) and type(sum(letters)) is int
    except AttributeError:  # not a WeylWord; a try costs nothing until it raises
        raise EngineError("a word must be a WeylWord, not %s" % type(word).__name__) from None
    except TypeError:  # an unhashable letter, or one that does not add with an int
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
    try:
        return _replay(word, rs)[1]
    except AttributeError:  # the word's own check raises an EngineError
        raise EngineError(wrong_kind("length", "a RootSystem", rs)) from None


def longest_element(par, rs):
    """Longest element w_{0,P} of the parabolic subgroup W_P.

    Greedy ascent: append the smallest i in S_P with w(alpha_i) still
    positive, i.e. with v_i > 0 for v = w^{-1}(rho) (see _replay), and map
    v to s_i(v); it ends with all of them negative, at length |R_P^+|.
    """
    try:
        cols = rs.columns
        check_parabolic(par, rs.rank)
    except AttributeError:
        raise EngineError(wrong_kind("longest_element", "a ParabolicSubset and a RootSystem",
                                     par, rs)) from None
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

    The walk also records the orbit's index map: steps[k][i] is the index
    of s_i(point k) where that step raises, else None (point 0 is lambda_P;
    a point at the length bound has no steps). It is kept on rs as its one
    slot _orbit = (S_P members, steps), which the next enumeration on rs
    replaces, for flag.schubert_codim to walk.
    """
    try:
        cols = rs.columns
        check_parabolic(par, rs.rank)
    except AttributeError:
        raise EngineError(wrong_kind("enumerate_coset_reps", "a ParabolicSubset and a RootSystem",
                                     par, rs)) from None
    rank = rs.rank
    start = tuple(0 if i in par.members else 1 for i in range(1, rank + 1))
    index = {start: 0}  # orbit point -> its place in words and steps
    words = [()]  # the first word that reached each point
    steps = []
    level = [start]
    depth = 0
    while level and depth < max_length:
        nxt = []
        for img in level:
            # points are walked in the order they were found: this is point len(steps)
            word = words[len(steps)]
            up = [None] * (rank + 1)
            for i, c in enumerate(img, 1):
                if c > 0:
                    # left multiplication by s_i: prepend the letter
                    img2 = list(img)
                    for j, a in cols[i - 1]:
                        img2[j] -= c * a
                    img2 = tuple(img2)
                    k = index.get(img2)
                    if k is None:
                        k = index[img2] = len(words)
                        words.append((i,) + word)
                        nxt.append(img2)
                    up[i] = k
            steps.append(up)
        level = nxt
        depth += 1
    steps += [[None] * (rank + 1)] * (len(words) - len(steps))
    rs.__dict__["_orbit"] = par.members, steps
    return [WeylWord(w) for w in sorted(words, key=lambda w: (len(w), w))]
