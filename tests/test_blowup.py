import hashlib
import itertools
import pickle
import random
import re
from enum import IntEnum
from fractions import Fraction

import pytest

from schubert_blowup import (
    BetaVector,
    CurveClass,
    DivisorClass,
    FanoReport,
    FlagVariety,
    ParabolicSubset,
    RootSystem,
    SchubertDatum,
    Verdict,
    WeylWord,
    anticanonical_class,
    beta_values,
    build_root_system,
    classify,
    dimension,
    enumerate_coset_reps,
    intersect,
    is_ample,
    is_nef,
    mori_generators,
    nef_generators,
    picard_basis,
    schubert_codim,
)
from schubert_blowup.conventions import RANK_CAP
from schubert_blowup.errors import EngineError
from schubert_blowup.selfcheck import all_parabolics, all_types
from test_flag import fv_of
from test_selfcheck import check_test


GR24 = ("A", 3, {1, 3})


def test_nef_generators_gr24():
    fv = fv_of(*GR24)
    gens = nef_generators(fv, 4)
    assert len(gens) == 2
    assert gens[0] == DivisorClass((2,), (1,), 0)
    assert gens[1] == DivisorClass((2,), (1,), -1)  # H - E_Z


def test_generator_counts():
    # always |S \ S_P| + 1
    assert len(nef_generators(fv_of("A", 2, ()), 2)) == 3
    assert len(nef_generators(fv_of("A", 3, ()), 2)) == 4
    assert len(nef_generators(fv_of("A", 3, {1}), 3)) == 3
    fv = fv_of("A", 3, {1})
    assert len(mori_generators(fv, 3)) == len(picard_basis(fv)) + 1


class _Codim(IntEnum):
    THREE = 3


class _Odd(int):
    """An int subclass whose own arithmetic gives no int."""

    def __add__(self, other):
        return 0.5

    __radd__ = __sub__ = __rsub__ = __add__


# classify's codimension guard lets only an int c in 2..dim skip
# check_codim; there, and in -K and the cone readers, any other c meets its
# message, and an int subclass in range passes it and reads as its int,
# whatever its own arithmetic
def test_codim_bounds_enforced():
    fv = fv_of(*GR24)  # dim 4
    for call in (classify, anticanonical_class, nef_generators, mori_generators):
        for bad in (0, 1, 5, True, 2.0, Fraction(3), "3", None):
            with pytest.raises(EngineError, match="^%s$" % re.escape(
                    "codimension %r outside 2..4" % (bad,))):
                call(fv, bad)
        for c in (_Codim.THREE, _Odd(3)):
            assert repr(call(fv, c)) == repr(call(fv, 3)), (call, c)


def test_mori_generators_gr24():
    fv = fv_of(*GR24)
    gens = mori_generators(fv, 4)
    assert gens == [CurveClass((2,), (1,), 0), CurveClass((2,), (0,), 1)]


def test_intersection_table():
    fv = fv_of("A", 2, ())
    basis = picard_basis(fv)
    d1 = DivisorClass(basis, (1, 0), 0)  # Bl*D_1
    h_minus_e = DivisorClass(basis, (1, 1), -1)
    e_z = DivisorClass(basis, (0, 0), 1)
    c1 = CurveClass(basis, (1, 0), 0)  # C~_1
    c2 = CurveClass(basis, (0, 1), 0)
    e = CurveClass(basis, (0, 0), 1)
    assert intersect(d1, c1) == 1
    assert intersect(d1, c2) == 0
    assert intersect(d1, e) == 0
    assert intersect(h_minus_e, e) == 1
    assert intersect(h_minus_e, c1) == 0
    assert intersect(e_z, e) == -1
    assert intersect(e_z, c1) == 1


def test_intersect_basis_mismatch():
    with pytest.raises(EngineError, match=r"divisor basis \(1,\) vs curve basis \(2,\)"):
        intersect(DivisorClass((1,), (1,), 0), CurveClass((2,), (1,), 0))


def dense_pairing(d, k):
    """The pairing summed over every pair of coordinates, with the table
    Bl*D_a . tilde C_b = delta_ab, Bl*D_a . e = 0, E_Z . tilde C_b = 1,
    E_Z . e = -1."""
    r = len(d.basis)
    dc = d.pullback_coeffs + (d.exceptional_coeff,)
    kc = k.tilde_coeffs + (k.e_coeff,)
    table = [[int(i == j) for j in range(r)] + [0] for i in range(r)]
    table.append([1] * r + [-1])
    return sum(dc[i] * kc[j] * table[i][j] for i in range(r + 1) for j in range(r + 1))


def _coeffs(rng, r, kind):
    """Zero, one nonzero coordinate, or every coordinate drawn from -3..3."""
    if kind == "zero":
        return (0,) * r
    if kind == "unit":
        i = rng.randrange(r)
        return (0,) * i + (rng.choice((-3, -2, -1, 1, 2, 3)),) + (0,) * (r - i - 1)
    return tuple(rng.randint(-3, 3) for _ in range(r))


@pytest.mark.parametrize("rank", range(1, RANK_CAP + 1))
def test_intersect_matches_the_dense_formula(rank):
    rng = random.Random("intersect:%d" % rank)
    basis = tuple(sorted(rng.sample(range(1, RANK_CAP + 1), rank)))
    equal = tuple(list(basis))  # an equal basis that is not the same object
    assert equal == basis and equal is not basis
    kinds = ("zero", "unit", "dense")
    for dkind, kkind, kbasis in itertools.product(kinds, kinds, (basis, equal)):
        for _ in range(10):
            d = DivisorClass(basis, _coeffs(rng, rank, dkind), rng.randint(-3, 3))
            k = CurveClass(kbasis, _coeffs(rng, rank, kkind), rng.randint(-3, 3))
            assert intersect(d, k) == dense_pairing(d, k), (d, k)
    # one node moved: the same length, a different basis
    other = basis[:-1] + (basis[-1] + 1,)
    with pytest.raises(EngineError, match="^divisor basis .* vs curve basis"):
        intersect(d, CurveClass(other, k.tilde_coeffs, k.e_coeff))


def _cases(specs):
    """(spec, S_P, FlagVariety) for each type of specs, on the full flag and
    on each maximal parabolic."""
    for spec in specs:
        rs = build_root_system(spec)
        nodes = set(range(1, spec.rank + 1))
        for members in [()] + [nodes - {a} for a in sorted(nodes)]:
            yield spec, sorted(members), FlagVariety(rs, ParabolicSubset.of(members))


def _fields(x):
    return tuple(getattr(x, f) for f in x._fields)


def _records(fv):
    """The records that the hot paths build on fv past their __init__: the
    generators, -K and the report at c = 2, the betas, the W^P words to
    length 2 and their data."""
    words = enumerate_coset_reps(fv.par, fv.rs, 2)
    classes = nef_generators(fv, 2) + mori_generators(fv, 2) + [anticanonical_class(fv, 2)[0]]
    return classes + [classify(fv, 2), beta_values(fv)] + words + [
        schubert_codim(fv, w) for w in words]


def _refuse(self, *args):
    raise AssertionError("%s.__init__ called" % type(self).__name__)


@pytest.mark.parametrize("spec", all_types(RANK_CAP), ids=str)
def test_engine_built_classes_match_the_checked_constructors(monkeypatch, spec):
    # every class that the engine builds equals and holds the same slots as
    # the class rebuilt from its fields by its checked constructor; a
    # hashable one also hashes like it, also after a pickle round trip (a
    # report and its betas hold a mapping, so neither hashes or pickles).
    # The one slot apart is a W^P word's _coset: the enumeration marks its
    # words with its system and S_P, and a rebuilt or unpickled word is unmarked
    for _, _, fv in _cases([spec]):
        if dimension(fv) < 2:  # A1: no centre of codimension >= 2
            continue
        for x in _records(fv):
            hashable = type(x) not in (FanoReport, BetaVector)
            rebuilt = [type(x)(*_fields(x))]
            if hashable:
                rebuilt.append(pickle.loads(pickle.dumps(x)))
            slots = [a for a in x.__slots__ if a != "_coset"]
            if type(x) is WeylWord:
                assert x._coset == (fv.rs, fv.par.members) and x._coset[0] is fv.rs, x
            for y in rebuilt:
                assert y == x and (not hashable or hash(y) == hash(x)), x
                assert [getattr(y, a) for a in slots] == [getattr(x, a) for a in slots]
                assert type(x) is not WeylWord or y._coset is None, y
    # the hot paths, the generators and -K among them, build their records
    # past __init__: with it refusing, each call still returns, on a system
    # that keeps no variety built before
    for cls in (FanoReport, BetaVector, SchubertDatum, WeylWord, DivisorClass, CurveClass):
        monkeypatch.setattr(cls, "__init__", _refuse)
    rs = RootSystem(spec)
    for _, members, fv in _cases([spec]):
        if dimension(fv) >= 2:
            _records(FlagVariety(rs, ParabolicSubset(members)))


def _outputs():
    """One line per case of every type up to RANK_CAP, at c = 2 and 3: the
    nef and Mori generators, the pairings of the nef generators and -K with
    the Mori generators, both bases of -K and the verdict, or the error."""
    for spec, members, fv in _cases(all_types(RANK_CAP)):
        for c in (2, 3):
            try:
                nef, mori = nef_generators(fv, c), mori_generators(fv, c)
                k, basis2 = anticanonical_class(fv, c)
                verdict = classify(fv, c).verdict.value
            except EngineError as e:
                yield repr((str(spec), members, c, str(e)))
                continue
            yield repr((str(spec), members, c, [_fields(x) for x in nef + mori],
                        [[intersect(d, m) for m in mori] for d in nef + [k]],
                        _fields(k), basis2, verdict))


def test_blowup_outputs_are_pinned():
    # one digest of the class layer's outputs over the whole domain: a change
    # to how classes are built or paired must keep every byte
    lines = list(_outputs())
    assert len(lines) == 1254
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "79585599953fc5564b8dc479ca5e75ce35dffb4945a04f35ccfd80d544fd5602"


def test_generator_lists_are_fresh_lists_of_shared_classes():
    fv = fv_of("D", 5, {2, 4})
    nef, mori = nef_generators(fv, 2), mori_generators(fv, 3)
    assert len(nef) == len(mori) == 4
    # every class built on fv shares its one Picard basis tuple
    assert all(x.basis is picard_basis(fv) for x in nef + mori + [anticanonical_class(fv, 2)[0]])
    # one unit tuple per node, shared by Bl*D_k and tilde C_k
    assert all(d.pullback_coeffs is k.tilde_coeffs for d, k in zip(nef[:3], mori[:3]))
    nef.clear()
    mori[0] = None
    again = nef_generators(fv, 3), mori_generators(fv, 2)
    assert [len(x) for x in again] == [4, 4] and None not in again[1]
    assert again[0] is not nef_generators(fv, 3)
    assert all(a is b for a, b in zip(again[0] + again[1],
                                       nef_generators(fv, 4) + mori_generators(fv, 4)))


def test_anticanonical_full_flag_c2():
    fv = fv_of("A", 2, ())
    dc, basis2 = anticanonical_class(fv, 2)
    assert dc.pullback_coeffs == (2, 2)
    assert dc.exceptional_coeff == -1
    # beta_alpha + 2 - c = 1 per node, H-E coefficient c - 1 = 1
    assert basis2 == (1, 1, 1)


def test_anticanonical_gr24_point():
    fv = fv_of(*GR24)
    dc, basis2 = anticanonical_class(fv, 4)
    assert (dc.pullback_coeffs, dc.exceptional_coeff) == ((4,), -3)
    assert basis2 == (1, 3)


def test_anticanonical_gr25_point_on_nef_boundary():
    fv = fv_of("A", 4, {1, 3, 4})
    dc, basis2 = anticanonical_class(fv, 6)
    assert basis2 == (0, 5)
    assert is_nef(fv, dc) and not is_ample(fv, dc)


def test_nef_ample_gg_tests():
    fv = fv_of("A", 2, ())
    basis = (1, 2)
    e_z = DivisorClass(basis, (0, 0), 1)
    assert not is_nef(fv, e_z)
    zero = DivisorClass(basis, (0, 0), 0)
    assert is_nef(fv, zero) and not is_ample(fv, zero)
    ample = DivisorClass(basis, (2, 2), -1)  # sum Bl*D + (H - E)
    assert is_ample(fv, ample)


@pytest.mark.parametrize("spec", all_types(3), ids=str)
def test_nef_and_ample_match_the_nef_basis_closed_form(spec):
    # d = sum a_alpha Bl*D_alpha + b E_Z = sum (a_alpha + b) Bl*D_alpha
    # - b (H - E_Z), and the nef cone is spanned by that basis: every class
    # with coefficients in -3..3, on every S_P
    rs = build_root_system(spec)
    for par in all_parabolics(spec.rank):
        fv = FlagVariety(rs, par)
        basis = picard_basis(fv)
        for *a, b in itertools.product(range(-3, 4), repeat=len(basis) + 1):
            coords = [x + b for x in a] + [-b]
            d = DivisorClass(basis, tuple(a), b)
            assert is_nef(fv, d) == all(x >= 0 for x in coords), d
            assert is_ample(fv, d) == all(x > 0 for x in coords), d


def test_classify_full_flag():
    fv = fv_of("B", 2, ())
    assert classify(fv, 2).verdict == Verdict.FANO
    assert classify(fv, 3).verdict == Verdict.WEAK_FANO_NOT_FANO
    assert classify(fv, 4).verdict == Verdict.NOT_WEAK_FANO


def test_classify_gr25_point():
    fv = fv_of("A", 4, {1, 3, 4})
    rep = classify(fv, 6)
    assert rep.verdict == Verdict.WEAK_FANO_NOT_FANO


def test_reports_share_read_only_betas():
    # every report on one FlagVariety shares its cached BetaVector, so a
    # caller must not be able to change the betas of the next classify
    fv = fv_of("A", 4, {1, 3, 4})
    first = classify(fv, 6)
    with pytest.raises(TypeError):
        first.betas.values[2] = 99
    assert classify(fv, 6) == first
    assert classify(fv, 6).betas[2] == 4 == classify(fv_of("A", 4, {1, 3, 4}), 6).betas[2]


def test_every_report_gets_its_own_margins():
    # classify copies the shared betas and shifts the copy: changing one
    # report's margins leaves the betas and the next report alone
    fv = fv_of("A", 4, {1, 3})
    betas = list(beta_values(fv).values.items())
    first = classify(fv, 3)
    margins = list(first.margins.items())
    first.margins[2] += 99
    first.margins[5] = 0
    second = classify(fv, 3)
    assert list(beta_values(fv).values.items()) == betas
    assert list(second.margins.items()) == margins and second.margins is not first.margins
    assert second.betas is first.betas


def test_margins_are_the_shifted_betas_in_picard_order():
    # every parabolic of every type to rank 4, at every c: a dict of ints
    # beta_alpha - c + 2, keyed by the Picard basis in its order
    for spec in all_types(4):
        rs = build_root_system(spec)
        for par in all_parabolics(spec.rank):
            fv = FlagVariety(rs, par)
            betas = beta_values(fv).values
            for c in range(2, dimension(fv) + 1):
                margins = classify(fv, c).margins
                assert type(margins) is dict and list(margins) == list(picard_basis(fv))
                assert list(margins.items()) == [(a, b - c + 2) for a, b in betas.items()]
                assert all(type(m) is int for m in margins.values())


test_b1_cone_duality = check_test("B1 cone duality")
# B2 is gone (its -K half is in B5); the id stays
test_b2_b3_round_trip_and_cone_agreement = check_test("B3 classifier vs cone test")
test_b5_margin_certificates = check_test("B5 margin certificates")
