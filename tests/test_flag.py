import pytest

from schubert_blowup import (
    FlagVariety,
    TypeSpec,
    Weight,
    anticanonical_weight,
    beta_values,
    build_root_system,
    dimension,
    picard_basis,
    schubert_codim,
    weight_to_divisor,
)
from schubert_blowup.errors import EngineError, NotAPCharacter, NotMinimalRep
from schubert_blowup.weyl import ParabolicSubset, WeylWord
from schubert_blowup.selfcheck import all_parabolics, all_types, closed_forms_agree


def fv_of(family, rank, members):
    rs = build_root_system(TypeSpec(family, rank))
    return FlagVariety(rs, ParabolicSubset.of(members))


def grassmannian(r, n):
    return fv_of("A", n - 1, set(range(1, n)) - {r})


def test_degenerate_parabolic_rejected():
    rs = build_root_system(TypeSpec("A", 2))
    with pytest.raises(EngineError):
        FlagVariety(rs, ParabolicSubset.of({1, 2}))


def test_full_flag_dimension_a2():
    assert dimension(fv_of("A", 2, ())) == 3


def test_grassmannian_dimension():
    for n in range(2, 10):
        for r in range(1, n):
            assert dimension(grassmannian(r, n)) == r * (n - r)


def test_picard_basis_is_complement():
    assert picard_basis(fv_of("A", 3, ())) == (1, 2, 3)
    assert picard_basis(fv_of("A", 3, {1, 3})) == (2,)
    assert picard_basis(fv_of("B", 4, {2, 3, 4})) == (1,)


def test_weight_to_divisor_fundamental_weight():
    fv = fv_of("A", 3, {1, 3})
    assert weight_to_divisor(fv, Weight((0, 1, 0))) == (1,)
    assert weight_to_divisor(fv, Weight((0, 0, 0))) == (0,)


def test_weight_to_divisor_rejects_non_characters():
    fv = fv_of("A", 3, {1, 3})
    with pytest.raises(NotAPCharacter):
        weight_to_divisor(fv, Weight((1, 0, 0)))


def test_weight_to_divisor_anticanonical():
    # rho + w_{0,P}(rho) corresponds to sum (1 + beta_alpha) D_alpha
    fv = fv_of("A", 4, {2, 3})
    betas = beta_values(fv)
    coeffs = weight_to_divisor(fv, anticanonical_weight(fv))
    assert coeffs == tuple(1 + betas[a] for a in picard_basis(fv))


def test_beta_full_flag_all_one():
    fv = fv_of("D", 4, ())
    betas = beta_values(fv)
    assert all(betas[a] == 1 for a in picard_basis(fv))


def test_beta_grassmannian_is_n_minus_1():
    for n in range(2, 10):
        for r in range(1, n):
            assert beta_values(grassmannian(r, n))[r] == n - 1


def test_beta_b3_oracle_value():
    # frozen from brute-force enumeration of W_{1,2} acting on rho:
    # the longest element sends rho to (-1, -1, 5)
    fv = fv_of("B", 3, {1, 2})
    assert beta_values(fv)[3] == 5


def test_beta_undefined_on_parabolic_nodes():
    fv = fv_of("A", 3, {1, 3})
    with pytest.raises(EngineError):
        beta_values(fv)[1]


def test_anticanonical_weight_full_flag():
    fv = fv_of("A", 3, ())
    assert anticanonical_weight(fv) == Weight((2, 2, 2))


def test_anticanonical_weight_gr24():
    fv = fv_of("A", 3, {1, 3})
    assert anticanonical_weight(fv) == Weight((0, 4, 0))


def test_anticanonical_weight_b2():
    # X*(P) membership forces a zero on node 1; value 4 on node 2 frozen
    # from the W_P orbit oracle
    fv = fv_of("B", 2, {1})
    assert anticanonical_weight(fv) == Weight((0, 4))


@pytest.mark.parametrize("spec", all_types(6), ids=str)
def test_f1_anticanonical_weight_in_picard_group(spec):
    rs = build_root_system(spec)
    for par in all_parabolics(rs.rank):
        fv = FlagVariety(rs, par)
        lam = anticanonical_weight(fv)
        for i in par.members:
            assert lam.coeffs[i - 1] == 0


@pytest.mark.parametrize("spec", all_types(6), ids=str)
def test_f2_closed_forms_match_weyl_word(spec):
    assert closed_forms_agree(build_root_system(spec))


def test_schubert_codim_point_and_curve():
    fv = fv_of("A", 3, {1, 3})
    point = schubert_codim(fv, WeylWord(()))
    assert (point.dim, point.codim) == (0, 4)
    curve = schubert_codim(fv, WeylWord((2,)))
    assert (curve.dim, curve.codim) == (1, 3)
    assert not curve.smooth_asserted


def test_schubert_codim_length_two():
    fv = fv_of("A", 3, {1, 3})
    datum = schubert_codim(fv, WeylWord((1, 2)))
    assert (datum.dim, datum.codim) == (2, 2)


def test_schubert_codim_rejects_non_minimal():
    fv = fv_of("A", 3, {1, 3})
    with pytest.raises(NotMinimalRep):
        schubert_codim(fv, WeylWord((1,)))
