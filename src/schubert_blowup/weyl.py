"""Weyl group words, their lengths, parabolic longest elements and
minimal coset representatives.

Words are tuples or lists of 1-based simple-reflection indices applied
right to left. Every walk reads RootSystem.columns. A replay checks a
word's letters once, up front (_letters, the one writer of a bad word's
message). longest_element and enumerate_coset_reps read their (S_P, root
system) arguments through one reader, _columns, and walk weight orbits on
integer lists instead of replaying words. length reads one replay of the
word on rho, whose signed count of steps is the length.
enumerate_coset_reps keeps the W^P words it returned on the RootSystem,
as the entry _orbit of its "__dict__" slot, which the next enumeration on
that system replaces: (S_P members, {letters: letters}), each returned
tuple mapped to itself. _coset_length, the one reader of that entry, gives
flag.schubert_codim a word's length there only when its letters are one of
those tuples itself, each a reduced word of an element of W^P by
construction, and replays and tests every other word.
flag.py needs no Weyl word for its invariants: they are closed forms, which
selfcheck F2 compares with the action of w_{0,P}. That action, act on a
Weight, Root or Coroot, lives in reference, since no classify or cones
call runs it.
"""

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
        except Exception:  # not iterable, or a node whose __hash__ raises any error
            raise EngineError("parabolic indices %r are not a set of nodes" % (members,)) from None
        (set_members,) = self._set
        set_members(self, members)

    @staticmethod
    def of(indices):
        return ParabolicSubset(indices)

    def complement(self, rank):
        return tuple(i for i in range(1, rank + 1) if i not in self.members)


def _letters(word, rank):
    """The letters of a WeylWord, checked in one pass per replay: a tuple or
    a list (a set has no order, and a one-shot iterator would be spent by
    the check), each an int in 1..rank (a bool counts, as in
    check_parabolic). The one writer of a bad word's message, which names
    the first bad letter."""
    try:
        letters = word.letters
    except AttributeError:  # not a WeylWord; a try costs nothing until it raises
        raise EngineError("a word must be a WeylWord, not %s" % type(word).__name__) from None
    if type(letters) is not tuple and type(letters) is not list:
        raise EngineError("word letters %r are not a sequence of nodes" % (letters,))
    for i in letters:
        if not (isinstance(i, int) and 1 <= i <= rank):
            raise EngineError("reflection index %r outside 1..%d" % (i, rank))
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


def _coset_length(word, members, rs):
    """l(w) for w in W^P, S_P = members, else an EngineError. One of the
    tuples kept in _orbit for members, that tuple itself, has its size as
    its length; every other word is replayed, and lies in W^P iff v_i > 0
    for v = w^{-1}(rho), i.e. w(alpha_i) > 0, on each i in S_P."""
    orbit = rs.__dict__.get("_orbit")
    if orbit is not None and (orbit[0] is members or orbit[0] == members):
        try:
            letters = word.letters
            if orbit[1].get(letters) is letters:  # one of the enumeration's own words
                return len(letters)
        except Exception:  # not a WeylWord, or letters whose __hash__ raises any error
            pass  # the replay writes the message
    v, l = _replay(word, rs)
    if not all(v[i - 1] > 0 for i in members):
        raise EngineError("word %r is not a minimal coset representative" % (word.letters,))
    return l


def length(word, rs):
    """Bruhat length: number of positive roots sent negative."""
    try:
        return _replay(word, rs)[1]
    except AttributeError:  # the word's own check raises an EngineError
        raise EngineError(wrong_kind("length", "a RootSystem", rs)) from None


def _columns(par, rs, call):
    """rs.columns, with S_P checked: the one read of a (par, rs) pair."""
    try:
        cols = rs.columns
        check_parabolic(par, rs.rank)
    except AttributeError:
        raise EngineError(wrong_kind(call, "a ParabolicSubset and a RootSystem", par, rs)) from None
    return cols


def longest_element(par, rs):
    """Longest element w_{0,P} of the parabolic subgroup W_P.

    Greedy ascent: append the smallest i in S_P with w(alpha_i) still
    positive, i.e. with v_i > 0 for v = w^{-1}(rho) (see _replay), and map
    v to s_i(v); it ends with all of them negative, at length |R_P^+|.
    """
    cols = _columns(par, rs, "longest_element")
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
    word). A length bound that is not an int is an EngineError; a bool
    reads as its int, as a bool letter does, and a negative bound gives no
    word.

    The words returned are kept on rs for _coset_length, in the format that
    this module's docstring gives.
    """
    cols = _columns(par, rs, "enumerate_coset_reps")
    if not isinstance(max_length, int):
        raise EngineError("length bound %r is not an int" % (max_length,))
    start = tuple(0 if i in par.members else 1 for i in range(1, rs.rank + 1))
    seen = {start}
    reps = [()] if max_length >= 0 else []  # the words in (length, word) order
    level = [(start, ())]  # each point of the last level with the first word that reached it
    depth = 0
    while level and depth < max_length:
        nxt = []
        for img, word in level:
            for i, c in enumerate(img, 1):
                if c > 0:
                    # left multiplication by s_i: prepend the letter
                    img2 = list(img)
                    for j, a in cols[i - 1]:
                        img2[j] -= c * a
                    img2 = tuple(img2)
                    if img2 not in seen:
                        seen.add(img2)
                        nxt.append((img2, (i,) + word))
        level = nxt
        depth += 1
        # the words found on one level have one length: their own sort, with
        # no key, puts them in (length, word) order
        reps += sorted([w for _, w in nxt])
    rs.__dict__["_orbit"] = par.members, {t: t for t in reps}
    return [WeylWord(w) for w in reps]
