import hashlib
import itertools
import random

import pytest

from schubert_blowup import (
    FlagVariety,
    RootSystem,
    TypeSpec,
    Weight,
    anticanonical_weight,
    beta_values,
    build_root_system,
    dimension,
    picard_basis,
    schubert_codim,
)
from schubert_blowup import table
from schubert_blowup.conventions import RANK_CAP, simple_factors
from schubert_blowup.flag import FLAGS_PER_SYSTEM
from schubert_blowup.errors import EngineError
from schubert_blowup.reference import cartan
from schubert_blowup.rootsys import kept_varieties
from schubert_blowup.weyl import ParabolicSubset, WeylWord
from schubert_blowup.selfcheck import _in_levi, all_parabolics, all_types
from test_selfcheck import check_test


def fv_of(family, rank, members):
    rs = build_root_system(TypeSpec(family, rank))
    return FlagVariety(rs, ParabolicSubset.of(members))


def test_degenerate_parabolic_rejected():
    rs = build_root_system(TypeSpec("A", 2))
    with pytest.raises(EngineError):
        FlagVariety(rs, ParabolicSubset.of({1, 2}))


def test_repeated_nodes_count_once():
    # S_P = {1, 2} on A3, not S: the repeat must not count towards S_P = S
    rs = build_root_system(TypeSpec("A", 3))
    fv = FlagVariety(rs, ParabolicSubset([1, 1, 2]))
    assert fv.par == ParabolicSubset.of({1, 2}) and picard_basis(fv) == (3,)
    assert beta_values(fv) == beta_values(FlagVariety(rs, ParabolicSubset.of({1, 2})))


def test_a_kept_system_keeps_one_flag_variety_per_parabolic():
    build_root_system(TypeSpec("B", 4))
    rs = build_root_system(TypeSpec("B", 4))
    fv = FlagVariety(rs, ParabolicSubset.of({2, 3}))
    assert FlagVariety(rs, ParabolicSubset.of([3, 2])) is fv
    assert FlagVariety(build_root_system(TypeSpec("B", 4)), ParabolicSubset.of({2, 3})) is fv
    fresh = FlagVariety(RootSystem(rs.spec), ParabolicSubset.of({2, 3}))
    assert fresh is not fv and fresh == fv and hash(fresh) == hash(fv)
    assert (beta_values(fresh), dimension(fresh)) == (beta_values(fv), dimension(fv))
    # members given in a list are kept as a frozenset, so they find the kept one
    listed = FlagVariety(rs, ParabolicSubset([2, 3]))
    assert listed is fv and listed.par.members == frozenset({2, 3})
    assert list(kept_varieties(rs)) == [frozenset({2, 3})]


def test_a_kept_system_holds_at_most_flags_per_system_varieties():
    build_root_system(TypeSpec("A", 7))
    rs = build_root_system(TypeSpec("A", 7))
    proper = [ParabolicSubset.of(m) for k in range(7)
              for m in itertools.combinations(range(1, 8), k)]
    first = [FlagVariety(rs, par) for par in proper]
    again = [FlagVariety(rs, par) for par in proper]
    assert len(proper) == 127 and len(kept_varieties(rs)) == FLAGS_PER_SYSTEM
    # the first FLAGS_PER_SYSTEM asked for are kept, the rest built each time
    assert [a is b for a, b in zip(first, again)] == (
        [True] * FLAGS_PER_SYSTEM + [False] * (127 - FLAGS_PER_SYSTEM))
    assert first == again


def test_full_flag_dimension_a2():
    assert dimension(fv_of("A", 2, ())) == 3


test_grassmannian_dimension = check_test("F4 Grassmannian dimension")


def test_picard_basis_is_complement():
    assert picard_basis(fv_of("A", 3, ())) == (1, 2, 3)
    assert picard_basis(fv_of("A", 3, {1, 3})) == (2,)
    assert picard_basis(fv_of("B", 4, {2, 3, 4})) == (1,)


def test_beta_full_flag_all_one():
    fv = fv_of("D", 4, ())
    betas = beta_values(fv)
    assert all(betas[a] == 1 for a in picard_basis(fv))


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


# the -K weight vanishes on S_P by F2 and W3, and the reversed word of
# w_{0,P} names the same involution, so its betas are F2's: the names of
# those two tests keep their ids on F2
test_f1_anticanonical_weight_in_picard_group = test_f2_closed_forms_match_weyl_word = \
    test_f3_beta_word_independence = check_test("F2 closed forms vs Weyl word")


def test_schubert_codim_point_and_curve():
    fv = fv_of("A", 3, {1, 3})
    point = schubert_codim(fv, WeylWord(()))
    assert (point.dim, point.codim) == (0, 4)
    curve = schubert_codim(fv, WeylWord((2,)))
    assert (curve.dim, curve.codim) == (1, 3)


def test_schubert_codim_length_two():
    fv = fv_of("A", 3, {1, 3})
    datum = schubert_codim(fv, WeylWord((1, 2)))
    assert (datum.dim, datum.codim) == (2, 2)


def test_schubert_codim_rejects_non_minimal():
    fv = fv_of("A", 3, {1, 3})
    with pytest.raises(EngineError, match=r"word \(1,\) is not a minimal coset representative"):
        schubert_codim(fv, WeylWord((1,)))


def support_filter_invariants(rs, members):
    """|R_P^+| and 2 rho_P by filtering R^+ for the roots supported on S_P."""
    levi = [r.coeffs for r in rs.positive_roots if _in_levi(r, members)]
    return len(levi), [sum(col) for col in zip(*levi)] if levi else [0] * rs.rank


def assert_matches_support_filter(rs, members):
    fv = FlagVariety(rs, ParabolicSubset.of(members))
    count, two_rho_p = support_filter_invariants(rs, members)
    assert dimension(fv) == len(rs.positive_roots) - count
    # w_{0,P}(rho) = rho - 2 rho_P in weight coordinates
    img = [1 - sum(c * k for c, k in zip(row, two_rho_p)) for row in cartan(rs)]
    assert dict(beta_values(fv).values) == {a: img[a - 1] for a in picard_basis(fv)}
    assert table._least_beta(fv) == min(img[a - 1] for a in picard_basis(fv))
    assert anticanonical_weight(fv) == Weight(tuple(1 + x for x in img))


@pytest.mark.parametrize("spec", all_types(RANK_CAP), ids=str)
def test_levi_closure_matches_support_filter(spec):
    rs = build_root_system(spec)
    n = rs.rank
    rng = random.Random(str(spec))
    subsets = [set(range(1, n + 1)) - {k} for k in range(1, n + 1)] + [set()]
    subsets += [{i for i in range(1, n + 1) if rng.random() < 0.5} - {rng.randint(1, n)}
                for _ in range(6)]
    for members in subsets:
        assert_matches_support_filter(rs, members)


# every proper S_P of every type to rank 8: 2,458 subsets
@pytest.mark.parametrize("spec", all_types(8), ids=str)
def test_levi_closed_form_on_every_parabolic(spec):
    rs = build_root_system(spec)
    for par in all_parabolics(rs.rank):
        assert_matches_support_filter(rs, par.members)


N = RANK_CAP


@pytest.mark.parametrize("family, rank, members, factors", [
    ("E", 8, range(1, 8), [("E", 7, (1, 2, 3, 4, 5, 6, 7))]),
    ("E", 8, (2, 3, 4, 5), [("D", 4, (5, 4, 3, 2))]),
    ("E", 7, (1, 2, 3, 4, 5), [("D", 5, (1, 3, 4, 5, 2))]),
    ("E", 6, (2, 4, 5, 6), [("A", 4, (2, 4, 5, 6))]),
    ("E", 6, (1, 2, 3, 4), [("A", 4, (1, 3, 4, 2))]),
    ("F", 4, (2, 3, 4), [("C", 3, (4, 3, 2))]),
    ("F", 4, (1, 2, 3), [("B", 3, (1, 2, 3))]),
    ("F", 4, (2, 3), [("B", 2, (2, 3))]),
    ("F", 4, (1, 2, 4), [("A", 2, (1, 2)), ("A", 1, (4,))]),
    ("D", N, (N - 2, N - 1, N), [("D", 3, (N - 2, N - 1, N))]),
    ("D", N, (N - 2, N), [("A", 2, (N - 2, N))]),
    ("D", N, (N - 1, N), [("A", 1, (N - 1,)), ("A", 1, (N,))]),
    ("D", 4, (1, 2, 4), [("A", 3, (1, 2, 4))]),
    ("B", N, (N,), [("A", 1, (N,))]),
    ("B", N, (1, N - 1, N), [("A", 1, (1,)), ("B", 2, (N - 1, N))]),
    ("C", 5, (2, 3, 4, 5), [("C", 4, (2, 3, 4, 5))]),
], ids=["E8-E7", "E8-D4", "E7-D5", "E6-A4-from-2", "E6-A4-to-2", "F4-C3", "F4-B3",
        "F4-B2", "F4-A2xA1", "D-D3", "D-A2", "D-A1xA1", "D4-A3", "B-A1", "B-A1xB2", "C5-C4"])
def test_levi_simple_factors(family, rank, members, factors):
    assert simple_factors(family, rank, frozenset(members)) == factors


# SHA-256 of repr of the splits of every subset of S, by size, of every type
# to rank 8 (2,490 of them), recorded from the earlier split that wrote each
# diagram out itself, so that the split read off conventions._diagram keeps
# every factor, its family and its node order
def test_levi_simple_factors_pinned():
    splits = [simple_factors(s.family, s.rank, frozenset(sub)) for s in all_types(8)
              for m in range(s.rank + 1) for sub in itertools.combinations(range(1, s.rank + 1), m)]
    assert len(splits) == 2490
    assert hashlib.sha256(repr(splits).encode()).hexdigest() == (
        "5c5f59b84855b2b7a4a7dfacf8fa86683e5bd5aacb27106e963208d23f867bc6")
