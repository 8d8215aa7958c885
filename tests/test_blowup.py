import random

import pytest
from hypothesis import given, strategies as st

from schubert_blowup import (
    CurveClass,
    DivisorClass,
    FlagVariety,
    TypeSpec,
    Verdict,
    anticanonical_class,
    build_root_system,
    classify,
    dimension,
    intersect,
    is_ample,
    is_globally_generated,
    is_nef,
    mori_generators,
    nef_generators,
    picard_basis,
)
from schubert_blowup.blowup import Big, cone_report, from_nef_basis, to_nef_basis
from schubert_blowup.errors import BasisMismatch, CodimOutOfRange
from schubert_blowup.weyl import ParabolicSubset
from schubert_blowup.selfcheck import all_parabolics, all_types


def fv_of(family, rank, members):
    rs = build_root_system(TypeSpec(family, rank))
    return FlagVariety(rs, ParabolicSubset.of(members))


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


def test_codim_bounds_enforced():
    fv = fv_of(*GR24)
    for bad in (0, 1, 5):
        with pytest.raises(CodimOutOfRange):
            nef_generators(fv, bad)
        with pytest.raises(CodimOutOfRange):
            classify(fv, bad)


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
    with pytest.raises(BasisMismatch):
        intersect(DivisorClass((1,), (1,), 0), CurveClass((2,), (1,), 0))


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
    assert is_nef(dc) and not is_ample(dc)


def test_nef_ample_gg_tests():
    basis = (1, 2)
    e_z = DivisorClass(basis, (0, 0), 1)
    assert not is_nef(e_z)
    zero = DivisorClass(basis, (0, 0), 0)
    assert is_nef(zero) and not is_ample(zero)
    ample = DivisorClass(basis, (2, 2), -1)  # sum Bl*D + (H - E)
    assert is_ample(ample) and is_globally_generated(ample)


def test_classify_full_flag():
    fv = fv_of("B", 2, ())
    assert classify(fv, 2).verdict == Verdict.FANO
    assert classify(fv, 3).verdict == Verdict.WEAK_FANO_NOT_FANO
    assert classify(fv, 4).verdict == Verdict.NOT_WEAK_FANO


def test_classify_gr25_point():
    fv = fv_of("A", 4, {1, 3, 4})
    rep = classify(fv, 6)
    assert rep.verdict == Verdict.WEAK_FANO_NOT_FANO
    assert rep.anticanonical_big == Big.TRUE


def test_classify_center_reads_codim_from_datum():
    from schubert_blowup import schubert_codim
    from schubert_blowup.blowup import classify_center
    from schubert_blowup.weyl import WeylWord

    fv = fv_of(*GR24)
    datum = schubert_codim(fv, WeylWord(()))  # a point, codim 4
    assert classify_center(fv, datum) == classify(fv, 4)


def test_reports_share_read_only_betas():
    # every report on one FlagVariety shares its cached BetaVector, so a
    # caller must not be able to change the betas of the next classify
    fv = fv_of("A", 4, {1, 3, 4})
    first = classify(fv, 6)
    with pytest.raises(TypeError):
        first.betas.values[2] = 99
    assert classify(fv, 6) == first
    assert classify(fv, 6).betas[2] == 4 == classify(fv_of("A", 4, {1, 3, 4}), 6).betas[2]


def test_classify_big_unknown_when_not_weak_fano():
    fv = fv_of("B", 2, ())
    assert classify(fv, 4).anticanonical_big == Big.UNKNOWN


def test_cone_report_facts():
    rep = cone_report(fv_of(*GR24), 4)
    assert rep.globally_generated_equals_nef
    assert rep.h_minus_e_is_big
    assert len(rep.nef_generators) == len(rep.mori_generators) == 2


@pytest.mark.parametrize("spec", all_types(5), ids=str)
def test_b1_cone_duality(spec):
    rs = build_root_system(spec)
    for par in all_parabolics(rs.rank):
        fv = FlagVariety(rs, par)
        d = dimension(fv)
        if d < 2:
            continue
        for c in range(2, d + 1):
            nef = nef_generators(fv, c)
            mori = mori_generators(fv, c)
            for i, dd in enumerate(nef):
                for j, kk in enumerate(mori):
                    assert intersect(dd, kk) == (1 if i == j else 0)


@pytest.mark.parametrize("spec", all_types(4), ids=str)
def test_b2_b3_round_trip_and_cone_agreement(spec):
    rs = build_root_system(spec)
    for par in all_parabolics(rs.rank):
        fv = FlagVariety(rs, par)
        d = dimension(fv)
        for c in range(2, d + 1):
            dc, basis2 = anticanonical_class(fv, c)
            assert from_nef_basis(dc.basis, basis2) == dc
            assert to_nef_basis(dc) == basis2
            rep = classify(fv, c)
            if rep.verdict == Verdict.FANO:
                assert is_ample(dc)
            elif rep.verdict == Verdict.WEAK_FANO_NOT_FANO:
                assert is_nef(dc) and not is_ample(dc)
            else:
                assert not is_nef(dc)


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    st.integers(-5, 5),
    st.integers(1, 6),
)
def test_b4_scaling_preserves_verdicts(pullback, exc, m):
    d = DivisorClass((1, 2), tuple(pullback), exc)
    assert is_nef(d) == is_nef(d.scaled(m))
    assert is_ample(d) == is_ample(d.scaled(m))


def test_b5_margin_certificates_random_sample():
    rng = random.Random(42)
    specs = all_types(6)
    done = 0
    while done < 100:
        spec = rng.choice(specs)
        rs = build_root_system(spec)
        pars = all_parabolics(rs.rank)
        fv = FlagVariety(rs, rng.choice(pars))
        d = dimension(fv)
        if d < 2:
            continue
        c = rng.randint(2, d)
        dc, _ = anticanonical_class(fv, c)
        mori = mori_generators(fv, c)
        rep = classify(fv, c)
        basis = picard_basis(fv)
        for j, a in enumerate(basis):
            assert intersect(dc, mori[j]) == rep.margins[a] == rep.betas[a] - c + 2
        assert intersect(dc, mori[-1]) == c - 1
        done += 1
