import hashlib
import math
import random
import re
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from schubert_blowup import (
    Coroot,
    CurveClass,
    DivisorClass,
    FlagVariety,
    Root,
    RootSystem,
    SchubertDatum,
    TypeSpec,
    Weight,
    act,
    anticanonical_class,
    beta_values,
    build_root_system,
    classify,
    coroot_of,
    dimension,
    enumerate_coset_reps,
    flag,
    height,
    intersect,
    is_nef,
    length,
    longest_element,
    mori_generators,
    nef_generators,
    pairing,
    rho,
    root_as_weight,
    schubert_codim,
    special,
    weyl,
)
from schubert_blowup.conventions import RANK_CAP
from schubert_blowup.errors import EngineError
from schubert_blowup.reference import cartan, highest_root, simple_coroot
from schubert_blowup.rootsys import kept_varieties
from schubert_blowup.weyl import ParabolicSubset, WeylWord
from schubert_blowup.selfcheck import _in_levi, all_types, inversion_count
from contracts import CONTRACTS, argument_pool, drawn, params
from test_rootsys import simple_root
from test_selfcheck import check_test


def brute_force_group(rs):
    """Oracle: the whole Weyl group of a small rank, as one shortest word
    per element, sorted by (length, lexicographic word).

    Breadth-first over the orbit of rho, on which W acts simply, so each
    orbit point is one element. s_i acts by the dense Cartan formula
    v - v_i alpha_i, written out here so that the oracle shares no code
    with the walks it checks.
    """
    C = cartan(rs)
    start = (1,) * rs.rank
    words = {start: ()}  # orbit point -> the first word that reached it
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for i in range(rs.rank):
            img = tuple(v[r] - v[i] * C[r][i] for r in range(rs.rank))
            if img not in words:
                words[img] = (i + 1,) + words[v]
                queue.append(img)
    return [WeylWord(w) for w in sorted(words.values(), key=lambda w: (len(w), w))]


@pytest.fixture(scope="module")
def a2():
    return build_root_system(TypeSpec("A", 2))


@pytest.fixture(scope="module")
def b2():
    return build_root_system(TypeSpec("B", 2))


def test_reflect_weight_a2(a2):
    assert act(WeylWord((1,)), rho(a2), a2) == Weight((-1, 2))


def test_reflect_fixes_zero_coordinate(a2):
    lam = Weight((0, 5))
    assert act(WeylWord((1,)), lam, a2) == lam


@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.integers(1, 2))
def test_reflect_weight_involution(coeffs, i):
    rs = build_root_system(TypeSpec("A", 2))
    lam = Weight(coeffs)
    assert act(WeylWord((i,)), act(WeylWord((i,)), lam, rs), rs) == lam


def test_reflect_root_negates_own_root(a2):
    for i in (1, 2):
        assert act(WeylWord((i,)), simple_root(a2, i), a2) == -simple_root(a2, i)


def test_reflect_root_a2(a2):
    assert act(WeylWord((1,)), simple_root(a2, 2), a2) == Root((1, 1))


def test_reflect_coroot_b2_matches_oracle_orbit(b2):
    # orbit of alpha_1^v under the full group, cross-checked via the
    # oracle: s_2(alpha_1^v) must land in the coroot orbit computed there
    img = act(WeylWord((2,)), simple_coroot(b2, 1), b2)
    assert img.coeffs == (1, 1)  # alpha_1^v + alpha_2^v, hand-checked
    orbit = set()
    for w in brute_force_group(b2):
        orbit.add(act(w, simple_coroot(b2, 1), b2).coeffs)
    assert img.coeffs in orbit


def test_reflect_index_out_of_range(a2):
    with pytest.raises(EngineError, match=r"reflection index 3 outside 1\.\.2"):
        act(WeylWord((3,)), rho(a2), a2)


def _full_flag(rs):
    return FlagVariety(rs, ParabolicSubset.of(()))


# every law that takes a codimension, each on a G/P of dimension 3: A2/B,
# Gr(1, 4) and A3/P1
_CODIM_LAWS = {
    "classify": lambda rs, c: classify(_full_flag(rs), c),
    "anticanonical": lambda rs, c: anticanonical_class(_full_flag(rs), c),
    "nef": lambda rs, c: nef_generators(_full_flag(rs), c),
    "mori": lambda rs, c: mori_generators(_full_flag(rs), c),
    "grassmannian": lambda rs, c: special.grassmannian_classify(1, 4, c),
    "cominuscule": lambda rs, c: special.cominuscule_classify(
        build_root_system(TypeSpec("A", 3)), 1, c),
    "full-flag": lambda rs, c: special.full_flag_classify(rs, c),
}


class _TupleHashRaises(tuple):
    def __hash__(self):
        raise RuntimeError("no hash")


class _IntHashRaises(int):
    __hash__ = _TupleHashRaises.__hash__


def _codim_apart(rs, word, bound):
    """schubert_codim of the word that word() builds on the full flag of a
    system of rs's type built apart, after an enumeration of the full flag's
    W^P words to the bound on it, or none."""
    fv = _full_flag(RootSystem(rs.spec))
    if bound is not None:
        enumerate_coset_reps(fv.par, fv.rs, bound)
    return schubert_codim(fv, word())


def _kept(rs):
    """The kept system of rs's type, from its second build in the process."""
    build_root_system(rs.spec)
    kept = build_root_system(rs.spec)
    assert kept_varieties(kept) is not None
    return kept


# every call that takes S_P, each on A2
_PARABOLIC_CALLS = {
    "flag": FlagVariety,
    "longest": lambda rs, par: longest_element(par, rs),
    "cosets": lambda rs, par: enumerate_coset_reps(par, rs, 3),
}


# input whose rank is not the system's, a plain tuple, a beta node that is
# not an int, a coordinate vector in the wrong basis, a curve where a
# divisor goes or the reverse, a divisor or curve class whose coefficients
# do not fit its basis, and a codimension or an S_P node that is not an int:
# each is an EngineError with its own message, never a wrong answer or an
# AttributeError
@pytest.mark.parametrize("call,message", [
    pytest.param(lambda rs: act(WeylWord((1,)), Weight((1, 1, 1)), rs),
                 "weight rank 3 vs system rank 2", id="weight-3"),
    pytest.param(lambda rs: act(WeylWord((1,)), Weight((5,)), rs),
                 "weight rank 1 vs system rank 2", id="weight-1"),
    pytest.param(lambda rs: act(WeylWord((1,)), Coroot((0, 1, 1)), rs),
                 "coroot rank 3 vs system rank 2", id="coroot-3"),
    pytest.param(lambda rs: act(WeylWord((1,)), Coroot((1,)), rs),
                 "coroot rank 1 vs system rank 2", id="coroot-1"),
    pytest.param(lambda rs: act(WeylWord((1,)), Root((1,)), rs),
                 "root rank 1 vs system rank 2", id="root-1"),
    pytest.param(lambda rs: act(WeylWord((1,)), Root((1, 0, 1)), rs),
                 "root rank 3 vs system rank 2", id="root-3"),
    pytest.param(lambda rs: act(WeylWord((1,)), (1, 1), rs),
                 "act needs a Weight, Root or Coroot, not tuple", id="tuple"),
    pytest.param(lambda rs: beta_values(FlagVariety(rs, ParabolicSubset.of({1})))["2"],
                 "beta is defined only on S \\ S_P, not node '2'", id="beta-str-node"),
    pytest.param(lambda rs: root_as_weight(Coroot((1, 0)), rs), "root_as_weight needs a Root"
                 " and a RootSystem, not Coroot and RootSystem", id="root-as-weight-coroot"),
    pytest.param(lambda rs: root_as_weight(Weight((1, -1)), rs), "root_as_weight needs a Root"
                 " and a RootSystem, not Weight and RootSystem", id="root-as-weight-weight"),
    pytest.param(lambda rs: Weight((1, 0)) + Root((1, 1)),
                 "a Weight adds only to a Weight, not Root", id="weight-plus-root"),
    pytest.param(lambda rs: Weight((1, 0)) + 3,
                 "a Weight adds only to a Weight, not int", id="weight-plus-int"),
    pytest.param(lambda rs: pairing(Root((1, 0)), Weight((1, 0))),
                 "pairing needs a Weight and a Coroot, not Root and Weight", id="pairing-root-weight"),
    pytest.param(lambda rs: pairing(Weight((1, 0)), Root((1, 0))),
                 "pairing needs a Weight and a Coroot, not Weight and Root", id="pairing-weight-root"),
    pytest.param(lambda rs: Weight((1, 0)) + Weight((1, 0, 0)),
                 "weight ranks 2 vs 3", id="weight-plus-weight-3"),
] + [
    pytest.param(lambda rs, call=call: call(rs, (1,)),
                 "a word must be a WeylWord, not tuple", id="tuple-word-" + label)
    for label, call in [
        ("length", lambda rs, w: length(w, rs)),
        ("schubert-codim", lambda rs, w: schubert_codim(_full_flag(rs), w)),
        ("act", lambda rs, w: act(w, rho(rs), rs))]
] + [
    pytest.param(lambda rs, call=call: call(_full_flag(rs)), message, id="wrong-kind-" + label)
    for label, message, call in [
        ("divisor-divisor",
         "intersect needs a DivisorClass and a CurveClass, not DivisorClass and DivisorClass",
         lambda fv: intersect(nef_generators(fv, 2)[0], nef_generators(fv, 2)[1])),
        ("curve-curve",
         "intersect needs a DivisorClass and a CurveClass, not CurveClass and CurveClass",
         lambda fv: intersect(mori_generators(fv, 2)[0], mori_generators(fv, 2)[1])),
        ("curve-divisor",
         "intersect needs a DivisorClass and a CurveClass, not CurveClass and DivisorClass",
         lambda fv: intersect(mori_generators(fv, 2)[0], nef_generators(fv, 2)[0])),
        ("is-nef-curve",
         "is_nef needs a FlagVariety and a DivisorClass, not FlagVariety and CurveClass",
         lambda fv: is_nef(fv, mori_generators(fv, 2)[0]))]
] + [
    pytest.param(lambda rs, cls=cls, basis=basis, coeffs=coeffs, last=last: cls(basis, coeffs, last),
                 "coefficients %r, %r over basis %r: need a tuple basis, a tuple of an int per node"
                 " and an int E or e coefficient" % (coeffs, last, basis),
                 id="%s-%s" % (cls.__name__, label))
    for cls in (DivisorClass, CurveClass)
    for basis, coeffs, last, label in [
        ((1, 2), (1, 0, 5), 0, "length-3"), ((1, 2), (1,), 0, "length-1"),
        ((1, 2), (0.5, 1), 0, "float"), ((1, 2), (1, 0), 1.0, "float-last"),
        ((1, 2), (1, "2"), 0, "str"), ((1, 2), (1, 0), "1", "str-last"),
        ((1, 2), [1, 0], 0, "list"), ([1, 2], (1, 0), 0, "list-basis")]
] + [
    pytest.param(lambda rs, law=law, c=c: law(rs, c), "codimension %r outside 2..3" % (c,),
                 id="codim-%s-%s" % (label, name))
    for c, label in [(2.5, "2.5"), (3.0, "3.0"), ("3", "str"), (None, "None")]
    for name, law in _CODIM_LAWS.items()
] + [
    pytest.param(lambda rs, f=f, nodes=nodes: f(rs, ParabolicSubset.of(nodes)),
                 "parabolic indices %s outside 1..2" % shown, id="node-%s-%s" % (label, name))
    for nodes, shown, label in [([1.5], "[1.5]", "float"), ([1.0], "[1.0]", "int-valued-float"),
                                ({"a"}, "['a']", "str"), ({1, "a"}, "[1, 'a']", "mixed")]
    for name, f in _PARABOLIC_CALLS.items()
] + [
    # S_P is checked before a kept system looks it up: a bool node equals an
    # int one
    pytest.param(lambda rs, system=system, members=members:
                 FlagVariety(system(rs), ParabolicSubset(members)),
                 message, id="flag-%s-%s" % (label, kind))
    for members, message, label in [
        ([0], "parabolic indices [0] outside 1..2", "list-0"),
        ([1.5], "parabolic indices [1.5] outside 1..2", "list-float"),
        ([True, 0], "parabolic indices [0, True] outside 1..2", "list-bool-0"),
        (frozenset({False}), "parabolic indices [False] outside 1..2", "bool"),
        ([2, 1], "S_P = S gives the degenerate variety G/G", "list-all"),
        ({1, 2}, "S_P = S gives the degenerate variety G/G", "set-all"),
        (frozenset({1, 2}), "S_P = S gives the degenerate variety G/G", "all")]
    for kind, system in [("unkept", lambda rs: rs), ("kept", _kept)]
] + [
    # S_P is kept as a frozenset: an unhashable node, or members that are not
    # iterable, cannot make one
    pytest.param(lambda rs, members=members: ParabolicSubset(members),
                 "parabolic indices %r are not a set of nodes" % (members,), id="par-" + label)
    for members, label in [([[1]], "unhashable"), ([1, {2}], "unhashable-set"), (1, "int")]
] + [
    # a family that is unhashable, and a max rank that is a str: each was a
    # TypeError from a lookup or a comparison
    pytest.param(lambda rs: TypeSpec(["A"], 3), "unknown family ['A']", id="type-list-family"),
    pytest.param(lambda rs: all_types("3"), "max rank must be at least 1, got '3'",
                 id="all-types-str-rank"),
] + [
    # letters that are not iterable, and a node that is a str: each was a
    # TypeError from a second pass over the letters or from %d
    pytest.param(lambda rs, call=call, letters=letters: call(rs, WeylWord(letters)),
                 "word letters %r are not a sequence of nodes" % (letters,),
                 id="letters-%r-%s" % (letters, label))
    for letters in (None, 3)
    for label, call in [
        ("length", lambda rs, w: length(w, rs)),
        ("schubert-codim", lambda rs, w: schubert_codim(_full_flag(rs), w)),
        ("act", lambda rs, w: act(w, rho(rs), rs))]
] + [
    # letters, and a node, whose hash raises an error that is not a TypeError:
    # each escaped as that error. WeylWord refuses letters in a tuple
    # subclass before any walk, also once the full flag's W^P words were
    # enumerated on the system
    pytest.param(lambda rs, b=b: _codim_apart(rs, lambda: WeylWord(_TupleHashRaises((2,))), b),
                 "word letters (2,) are not a sequence of nodes", id="letters-hash-raises-" + label)
    for b, label in [(None, "unkept"), (3, "kept")]
] + [
    pytest.param(lambda rs: ParabolicSubset([_IntHashRaises(1)]),
                 "parabolic indices [1] are not a set of nodes", id="par-hash-raises"),
] + [
    pytest.param(lambda rs: special.cominuscule_classify(rs, "1", 3),
                 "node '1' is not cominuscule in A2", id="cominuscule-str-node"),
] + [
    # a tuple for a TypeSpec, a length bound, coordinates, families and a
    # Grassmannian's r that are not ints or not iterable: each was a
    # TypeError or an AttributeError, and a bound of 2.5 was read as 3
    pytest.param(lambda rs: RootSystem(("A", 2)), "RootSystem needs a TypeSpec, not tuple",
                 id="root-system-tuple"),
    pytest.param(lambda rs: enumerate_coset_reps(ParabolicSubset(()), rs, "3"),
                 "length bound '3' is not an int", id="cosets-str-bound"),
    pytest.param(lambda rs: enumerate_coset_reps(ParabolicSubset(()), rs, 2.5),
                 "length bound 2.5 is not an int", id="cosets-float-bound"),
    pytest.param(lambda rs: Root("ab"), "root coordinates 'ab' are not a tuple of ints",
                 id="root-str"),
    pytest.param(lambda rs: Weight((1,)) + Weight(None),
                 "weight coordinates None are not a tuple of ints", id="weight-plus-none"),
    pytest.param(lambda rs: all_types(3, 5), "families 5 are not a sequence of family names",
                 id="all-types-int-families"),
    pytest.param(lambda rs: special.grassmannian_classify("2", 4, 3),
                 "need 1 <= r <= n-1, got r='2', n=4", id="grassmannian-str-r"),
] + [
    # a cominuscule node or a beta node that is a list or a Fraction: each
    # was a TypeError from a lookup or an index
    pytest.param(lambda rs: special.cominuscule_classify(RootSystem(TypeSpec("A", 3)), [1], 3),
                 "node [1] is not cominuscule in A3", id="cominuscule-list-node"),
    pytest.param(lambda rs: special.cominuscule_classify(RootSystem(TypeSpec("A", 3)),
                                                         Fraction(1), 3),
                 "node Fraction(1, 1) is not cominuscule in A3", id="cominuscule-fraction-node"),
    pytest.param(lambda rs: beta_values(FlagVariety(rs, ParabolicSubset.of({1})))[[2]],
                 "beta is defined only on S \\ S_P, not node [2]", id="beta-list-node"),
])
def test_wrong_shaped_input_is_an_engine_error(a2, call, message):
    with pytest.raises(EngineError, match="^%s$" % re.escape(message)):
        call(a2)


# the ids of the hand-written rows that the walk below replaced, where they
# are not a call's own: each is a second name of the walk of the call that
# its row pinned, of its look-alike half if it ends in -like
_SECOND_NAMES = {
    FlagVariety: "flag-rs flag-par flag-par-like",
    RootSystem: "root-system-A40-like root-system-Z2-like root-system-E9-like",
    build_root_system: "build-root-system-A40-like build-root-system-Z2-like"
                       " build-root-system-E9-like",
    longest_element: "longest-element-par-like longest-element-rs-like",
    enumerate_coset_reps: "enumerate-coset-reps-par-like",
    length: "length-word-like",
    act: "act-rs-like",
    schubert_codim: "schubert-codim-kept-word-like",
    coroot_of: "coroot-of-spec coroot-of-weight coroot-of-systems",
    root_as_weight: "root-as-weight-flag root-as-weight-on-weight",
    rho: "rho-weight",
    height: "height-weight",
    intersect: "intersect-divisor-like intersect-curve-like",
}


def _id(f):
    """The call's name in kebab case: FlagVariety -> flag-variety, _least_beta -> least-beta."""
    return re.sub(r"(?<=[a-z])(?=[A-Z])", "-", f.__name__).lower().replace("_", "-").strip("-")


# an argument of the wrong kind is an EngineError that names what the call
# needs and the types it got, never an AttributeError or a wrong answer:
# each kind-checked parameter of each call of the contract table, given
# each value of the argument pool that is not of its kind, with the other
# arguments the pool's first value of their kind. A call's walk has two
# ids: one for the look-alikes (SimpleNamespaces) and one for the rest
@pytest.mark.parametrize("f, alike", [
    pytest.param(f, name.endswith("-like"), id=name)
    for f, (_, checks) in CONTRACTS.items() if checks
    for name in [_id(f), _id(f) + "-like", *_SECOND_NAMES.get(f, "").split()]])
def test_wrong_kind_argument_is_an_engine_error(f, alike):
    pool = argument_pool()
    kinds, checks = CONTRACTS[f]
    names = params(f)
    good = [next(v for v in pool if isinstance(v, kind)) for kind in kinds]
    named = {p: (needs, ps.split()) for needs, ps in checks.items() for p in ps.split()}
    named.update((p, (None, [p])) for p, kind in zip(names, kinds, strict=True)
                 if kind is WeylWord)
    for p, (needs, ps) in named.items():
        i = names.index(p)
        for value in pool:
            if isinstance(value, kinds[i]) or (type(value) is SimpleNamespace) is not alike:
                continue
            args = good[:i] + [drawn(value)] + good[i + 1:]
            got = " and ".join(type(args[names.index(q)]).__name__ for q in ps)
            message = ("%s needs %s, not %s" % (f.__name__, needs, got) if needs
                       else "a word must be a WeylWord, not %s" % got)
            with pytest.raises(EngineError, match="^%s$" % re.escape(message)):
                f(*args)


# a bad word gives one message on every path. length, act and
# schubert_codim's replay check the letters up front (weyl._letters), and
# weyl._coset_length replays every word that the enumeration did not mark,
# a bad one included. The message names the first bad letter wherever it
# stands, also before valid letters or beside a second one, and a letter
# that is not an int is bad even inside 1..rank.
# Letters in a set, a generator, a range or a tuple subclass (which may
# override ==) are no sequence, which WeylWord itself refuses, and a bool
# letter counts as its int on both paths. N stands for rank + 1, SEQ for
# "not a sequence"
N = "rank+1"
SEQ = "not a sequence"


class _TupleSubclass(tuple):
    pass


@pytest.mark.parametrize("spec", [TypeSpec("A", 2), TypeSpec("E", 8)], ids=str)
@pytest.mark.parametrize("letters,first", [
    ((0, 1, 2), 0), ((N, 2, 1, 2), N), ((0, N, 1), 0), ((N, 0), N), ((1, 2, 0, N), 0),
    ((1.0,), 1.0), ((1, 2.0), 2.0), (("a",), "a"), ((1, [2]), [2]),
    ((-1,), -1), ({1, 2}, SEQ), (frozenset({1, 2}), SEQ), ((i for i in (1, 2)), SEQ),
    (range(1, 3), SEQ), ((2, True), None), (_TupleSubclass((2, 1)), SEQ),
], ids=["0-first", "N-first", "0-then-N", "N-then-0", "0-after-valid",
        "float", "int-then-float", "str", "unhashable",
        "negative", "set", "frozenset", "generator", "range", "bool", "tuple-subclass"])
def test_letters_are_checked_before_the_walk(spec, letters, first, monkeypatch):
    # a system built apart, on which no other test enumerates
    rs = RootSystem(spec)
    n = rs.rank
    if type(letters) is tuple:
        letters = tuple(n + 1 if i == N else i for i in letters)
    if first == SEQ:
        bad = r"^word letters %s are not a sequence of nodes$" % re.escape(repr(letters))
        with pytest.raises(EngineError, match=bad):
            WeylWord(letters)
        return
    word = WeylWord(letters)
    fv = FlagVariety(rs, ParabolicSubset.of(()))
    codim = lambda: schubert_codim(fv, word)
    if first is None:
        datum = SchubertDatum(2, dimension(fv) - 2)
        assert length(word, rs) == 2 and codim() == datum
        (own,) = [w for w in enumerate_coset_reps(fv.par, rs, 2) if w.letters == (2, 1)]
        replays, real = [], weyl._replay
        monkeypatch.setattr(weyl, "_replay", lambda w, rs: replays.append(w) or real(w, rs))
        # a word the enumeration did not return is replayed, to the same
        # datum: the bool word, (1, 2) (on E8 s1 s2 = s2 s1 and the
        # enumeration returns (2, 1) alone) and a tuple equal to (2, 1) but
        # built apart
        for w in (word, WeylWord((1, 2)), WeylWord(tuple(list(own.letters)))):
            replays.clear()
            assert schubert_codim(fv, w) == datum and replays == [w]
        # the mark alone serves the enumeration's own word
        monkeypatch.setattr(weyl, "_replay", None)
        assert schubert_codim(fv, own) == datum
        # weyl alone decides W^P membership
        assert not hasattr(flag, "_replay")
        return
    bad = r"^reflection index %s outside 1\.\.%d$" % (
        re.escape(repr(n + 1 if first == N else first)), n)
    for call in (lambda: length(word, rs), codim, lambda: act(word, rho(rs), rs)):
        with pytest.raises(EngineError, match=bad):
            call()
    # the same word, after an enumeration of its S_P on the system
    enumerate_coset_reps(fv.par, rs, 2)
    with pytest.raises(EngineError, match=bad):
        codim()


def test_act_empty_word_is_identity(a2):
    assert act(WeylWord(()), rho(a2), a2) == rho(a2)


def test_act_longest_word_on_rho_a2(a2):
    w0 = longest_element(ParabolicSubset.of({1, 2}), a2)
    assert act(w0, rho(a2), a2) == Weight((-1, -1))


# the signs of a Root or Coroot are checked once, on the result: (2, 1) is
# sign-coherent but no root of A2, and s_2 s_1 takes it through (-1, 1)
def test_act_checks_the_signs_of_the_result_only(a2):
    assert act(WeylWord((2, 1)), Root((2, 1)), a2) == Root((-1, -2))
    with pytest.raises(EngineError, match=r"^mixed-sign root coordinates \(-1, 1\)$"):
        act(WeylWord((1,)), Root((2, 1)), a2)


# the three branches of act agree through the basis changes: the root branch
# with the weight branch, and the coroot branch with the weight branch through
# the W-invariance of the pairing
@pytest.mark.parametrize("spec", all_types(6), ids=str)
def test_act_commutes_with_the_basis_changes(spec):
    rs = build_root_system(spec)
    rng = random.Random(str(spec))
    for _ in range(20):
        word = WeylWord(tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 12))))
        lam = Weight(tuple(rng.randint(-5, 5) for _ in range(rs.rank)))
        w_lam = act(word, lam, rs)
        for beta in rs.positive_roots:
            assert root_as_weight(act(word, beta, rs), rs) == act(
                word, root_as_weight(beta, rs), rs)
            cob = coroot_of(beta, rs)
            assert pairing(w_lam, act(word, cob, rs)) == pairing(lam, cob)


def test_act_involutions_from_oracle(a2):
    for w in brute_force_group(a2):
        square = WeylWord(w.letters + w.letters)
        if act(square, rho(a2), a2) == rho(a2):
            for lam in (Weight((2, 0)), Weight((3, -1))):
                assert act(square, lam, a2) == lam


def test_length_basics(a2):
    assert length(WeylWord(()), a2) == 0
    assert length(WeylWord((1,)), a2) == 1


def test_length_longest_element_a3():
    rs = build_root_system(TypeSpec("A", 3))
    w0 = longest_element(ParabolicSubset.of({1, 2, 3}), rs)
    assert length(w0, rs) == 6 == len(rs.positive_roots)


def test_longest_element_empty_parabolic(a2):
    assert longest_element(ParabolicSubset.of(()), a2).letters == ()


def test_longest_element_a2_full(a2):
    w0 = longest_element(ParabolicSubset.of({1, 2}), a2)
    assert len(w0.letters) == 3
    for i in (1, 2):
        assert not act(w0, simple_root(a2, i), a2).is_positive()


def test_longest_element_b2_full(b2):
    w0 = longest_element(ParabolicSubset.of({1, 2}), b2)
    assert len(w0.letters) == 4 == len(b2.positive_roots)


def test_minimal_coset_rep_basics(a2):
    fv = FlagVariety(a2, ParabolicSubset.of({1}))
    assert schubert_codim(fv, WeylWord(())).dim == 0
    assert schubert_codim(fv, WeylWord((2,))).dim == 1
    with pytest.raises(EngineError, match=r"word \(1,\) is not a minimal coset representative"):
        schubert_codim(fv, WeylWord((1,)))


@pytest.mark.parametrize("node", [0, -1, 3])
def test_minimal_coset_rep_rejects_nodes_outside_the_diagram(a2, node):
    par = ParabolicSubset.of({node})
    for call in (lambda: FlagVariety(a2, par), lambda: longest_element(par, a2),
                 lambda: enumerate_coset_reps(par, a2, 5)):
        with pytest.raises(EngineError, match=r"^parabolic indices \[%d\] outside 1\.\.2$" % node):
            call()


def test_enumerate_coset_reps_zero_length(a2):
    reps = enumerate_coset_reps(ParabolicSubset.of({1}), a2, 0)
    assert [w.letters for w in reps] == [()]
    # a bool bound reads as its int
    assert enumerate_coset_reps(ParabolicSubset.of({1}), a2, True) == enumerate_coset_reps(
        ParabolicSubset.of({1}), a2, 1)
    # no word has length at most -1
    assert enumerate_coset_reps(ParabolicSubset.of({2}), a2, -1) == []


def test_enumerate_coset_reps_a2(a2):
    reps = enumerate_coset_reps(ParabolicSubset.of({2}), a2, 2)
    assert len(reps) == 3  # |W| / |W_P| = 6 / 2
    assert sorted(len(w.letters) for w in reps) == [0, 1, 2]


def test_enumerate_coset_reps_gr24():
    rs = build_root_system(TypeSpec("A", 3))
    reps = enumerate_coset_reps(ParabolicSubset.of({1, 3}), rs, 6)
    assert len(reps) == math.comb(4, 2)


def test_brute_force_group_orders():
    expected = {("A", 1): 2, ("A", 2): 6, ("B", 2): 8, ("G", 2): 12,
                ("A", 3): 24, ("B", 3): 48, ("C", 3): 48}
    for (fam, rank), order in expected.items():
        rs = build_root_system(TypeSpec(fam, rank))
        assert len(brute_force_group(rs)) == order


# w_{0,P}^2 = 1 follows from W3, and the length of w_{0,P} from W3 and W5:
# the name of the old length test keeps its ids on W5
test_w3_longest_element_root_permutation = check_test("W3 longest element root permutation")
test_w4_coset_rep_cardinality = check_test("W4 coset rep counts")
test_w2_w3_longest_element_inversions = test_w5_outputs_are_reduced = check_test("W5 reducedness")
test_w6_walk_vs_replay = check_test("W6 W^P lookup vs replay")


# a W^P word carries its own mark, so a later enumeration of another S_P
# leaves the earlier words served without a replay; a word enumerated on
# another system is replayed
def test_marked_words_stay_served_and_foreign_words_are_replayed(monkeypatch):
    rs = build_root_system(TypeSpec("A", 3))
    first = enumerate_coset_reps(ParabolicSubset({1}), rs, 6)
    second = enumerate_coset_reps(ParabolicSubset({2, 3}), rs, 1)
    on_1, on_23 = (FlagVariety(rs, ParabolicSubset(m)) for m in ({1}, {2, 3}))
    assert schubert_codim(on_1, WeylWord((1, 2, 3))) == SchubertDatum(3, 2)
    assert schubert_codim(on_23, WeylWord((3, 2, 1))) == SchubertDatum(3, 0)
    # s3 s2 s3 s2 has length 4 in B3 and 2 in A3, where s2 s3 s2 = s3 s2 s3
    b3 = enumerate_coset_reps(ParabolicSubset(()), build_root_system(TypeSpec("B", 3)), 9)
    (b3_word,) = [w for w in b3 if w.letters == (3, 2, 3, 2)]
    assert schubert_codim(_full_flag(rs), b3_word) == SchubertDatum(2, 4)
    monkeypatch.setattr(weyl, "_replay", None)
    for fv, words in ((on_1, first), (on_23, second)):
        assert [schubert_codim(fv, w) for w in words] == [
            SchubertDatum(len(w.letters), dimension(fv) - len(w.letters)) for w in words]


def test_schubert_codim_builds_no_orbit():
    # neither the walk nor the length read from it keeps anything on the
    # system, also on a kept one
    rs = _kept(RootSystem(TypeSpec("A", 3)))
    fv = FlagVariety(rs, ParabolicSubset({1}))
    before = set(vars(rs))
    assert schubert_codim(fv, WeylWord((1, 2, 3))).dim == 3
    words = enumerate_coset_reps(fv.par, rs, 6)
    assert [schubert_codim(fv, w).dim for w in words] == [len(w.letters) for w in words]
    assert set(vars(rs)) == before


# the greedy words of the original replay-based search, frozen
@pytest.mark.parametrize("family,rank,letters", [
    ("A", 3, (1, 2, 1, 3, 2, 1)),
    ("G", 2, (1, 2, 1, 2, 1, 2)),
    ("D", 4, (1, 2, 1, 3, 2, 1, 4, 2, 1, 3, 2, 4)),
])
def test_longest_element_words_pinned(family, rank, letters):
    rs = build_root_system(TypeSpec(family, rank))
    w0 = longest_element(ParabolicSubset.of(range(1, rank + 1)), rs)
    assert w0.letters == letters


# |W^P| = |W| / |W_P| for maximal parabolics of E: |W(E6)| / |W(D5)|,
# |W(E7)| / |W(E6)|, |W(E8)| / |W(E7)| and |W(E8)| / |W(D7)|
@pytest.mark.parametrize("rank,node,count", [
    (6, 1, 27), (7, 7, 56), (8, 8, 240), (8, 1, 2160),
])
def test_coset_rep_count_exceptional(rank, node, count):
    rs = build_root_system(TypeSpec("E", rank))
    par = ParabolicSubset.of(set(range(1, rank + 1)) - {node})
    reps = enumerate_coset_reps(par, rs, len(rs.positive_roots))
    assert len(reps) == count
    assert len({w.letters for w in reps}) == count
    # the longest representative has length dim G/P = |R^+| - |R_P^+|
    longest = longest_element(par, rs)
    assert len(reps[-1].letters) == len(rs.positive_roots) - len(longest.letters)


def _replay_minimal(word, par, rs):
    return all(act(word, simple_root(rs, i), rs).is_positive() for i in par.members)


@pytest.mark.parametrize("spec", all_types(RANK_CAP), ids=str)
def test_length_and_coset_test_match_word_replay(spec):
    rs = build_root_system(spec)
    bad = r"reflection index %d outside 1\.\.%d"
    rng = random.Random(str(spec))
    non_reduced = 0
    for _ in range(40):
        letters = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.3:
            # an adjacent pair s_i s_i cancels: never reduced
            i = rng.randint(1, rs.rank)
            k = rng.randint(0, len(letters))
            letters[k:k] = [i, i]
        word = WeylWord(tuple(letters))
        n = inversion_count(word, rs)
        assert length(word, rs) == n
        non_reduced += n < len(letters)
        par = ParabolicSubset.of(
            i for i in range(1, rs.rank + 1) if rng.random() < 0.5
        )
        if len(par.members) == rs.rank:
            continue  # S_P = S: no flag variety
        fv = FlagVariety(rs, par)
        if _replay_minimal(word, par, rs):
            levi = sum(_in_levi(r, par.members) for r in rs.positive_roots)
            datum = schubert_codim(fv, word)
            assert datum.dim == n
            assert datum.codim == len(rs.positive_roots) - levi - datum.dim
        else:
            with pytest.raises(EngineError, match=re.escape(
                    "word %r is not a minimal coset representative" % (word.letters,))):
                schubert_codim(fv, word)
        for i in (0, rs.rank + 1):
            with pytest.raises(EngineError, match=bad % (i, rs.rank)):
                schubert_codim(fv, WeylWord(tuple(letters) + (i,)))
    assert non_reduced > 0


# SHA-256 of repr([w.letters for w in W^P]), recorded from the earlier walk
# over Weight objects, so that any rewrite of the walk keeps its words and
# their order: the benchmark's census pairs (node 0: the full flag), then
# E7/P7, E8/P1 and B5/P2
@pytest.mark.parametrize("family,rank,node,count,digest", [
    ("A", 4, 0, 120, "f75cc5848ab6137cf86bcaf36764a15059b96e17d518ace149d17677b9ac7560"),
    ("A", 5, 3, 20, "56b9973e228c36767bd1d18ce9085bb376a94f0a67be387d19cf1e7de05e9f31"),
    ("A", 6, 3, 35, "5ac1d4a5940cd0ed5bc5fabdc49aecf39ecc84c1a2346f1c187a30f33060b086"),
    ("B", 3, 0, 48, "ca963c32338e41013349ca78cb17334727e1a431a1af05013c5dd2fd61206823"),
    ("B", 4, 1, 8, "d8c8b6f3420a1fa5f039d4bc0f96c25fbf01446144b61506bd027d713cd35ddb"),
    ("C", 4, 4, 16, "f014554893530bb61ad77cf65c21eaeb430c0f65fc89b06d7bc0fbbb5587004d"),
    ("D", 4, 2, 24, "c1c5050db3c59f138679ac6b53778babe6d0791631cd281e224d67ca4dff3ce7"),
    ("D", 5, 1, 10, "a0f096f15bb10d19029589fc85e5ca621ba91ffb86d52f90420444a696b9b8be"),
    ("D", 6, 1, 12, "a0adc5b25a1f94e2c41c97c4905c3bf35588f8bb2c700ce132dc25b10edcf9bc"),
    ("E", 6, 1, 27, "a03f0bc04062c7b7c706ba5b291d75d6bdc148df6a54b7824a65b8289822fbd4"),
    ("F", 4, 1, 24, "c15b3ca73d3b6aaab22eceb5e7813d5c0f24c887ce240b18e0adf559ffc853bf"),
    ("F", 4, 4, 24, "922c16f0e986409410f5f9250d3c37ff0e9f6215a101bf27e8d6f3207bebf474"),
    ("G", 2, 1, 6, "7eab024d5215d2db1c7d571a9350458fbd83f47483bdba8ef32a7c39b55db55a"),
    ("E", 7, 7, 56, "4771613591ab926688e36ea79021b590636693df2d96c425ae08ae5ab9fbd1e7"),
    ("E", 8, 1, 2160, "e22ac214ca75f65b56b0a0b95436becf86f700fb7f2550ec0f9d1ac00f8121b3"),
    ("B", 5, 2, 40, "5da91d90086bcb610685847c5269049743ff2bea70db564b833db05478f11ec3"),
])
def test_coset_walk_words_pinned(family, rank, node, count, digest):
    rs = build_root_system(TypeSpec(family, rank))
    par = ParabolicSubset.of(set(range(1, rank + 1)) - {node} if node else ())
    reps = enumerate_coset_reps(par, rs, len(rs.positive_roots))
    letters = [w.letters for w in reps]
    assert len(letters) == count
    assert hashlib.sha256(repr(letters).encode()).hexdigest() == digest
