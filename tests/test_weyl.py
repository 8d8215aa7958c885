import math

import pytest
from hypothesis import given, strategies as st

from schubert_blowup import (
    Root,
    TypeSpec,
    Weight,
    act,
    brute_force_group,
    build_root_system,
    enumerate_coset_reps,
    is_minimal_coset_rep,
    length,
    longest_element,
    rho,
)
from schubert_blowup.errors import IndexOutOfRange, RankTooLargeForOracle
from schubert_blowup.weyl import (
    ParabolicSubset,
    WeylWord,
    reflect_coroot,
    reflect_root,
    reflect_weight,
)
from schubert_blowup.selfcheck import all_parabolics, all_types


@pytest.fixture(scope="module")
def a2():
    return build_root_system(TypeSpec("A", 2))


@pytest.fixture(scope="module")
def b2():
    return build_root_system(TypeSpec("B", 2))


def test_reflect_weight_a2(a2):
    assert reflect_weight(1, rho(a2), a2) == Weight((-1, 2))


def test_reflect_fixes_zero_coordinate(a2):
    lam = Weight((0, 5))
    assert reflect_weight(1, lam, a2) == lam


@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.integers(1, 2))
def test_reflect_weight_involution(coeffs, i):
    rs = build_root_system(TypeSpec("A", 2))
    lam = Weight(coeffs)
    assert reflect_weight(i, reflect_weight(i, lam, rs), rs) == lam


def test_reflect_root_negates_own_root(a2):
    for i in (1, 2):
        assert reflect_root(i, a2.simple_root(i), a2) == -a2.simple_root(i)


def test_reflect_root_a2(a2):
    assert reflect_root(1, a2.simple_root(2), a2) == Root((1, 1))


def test_reflect_coroot_b2_matches_oracle_orbit(b2):
    # orbit of alpha_1^v under the full group, cross-checked via the
    # oracle: s_2(alpha_1^v) must land in the coroot orbit computed there
    img = reflect_coroot(2, b2.simple_coroot(1), b2)
    assert img.coeffs == (1, 1)  # alpha_1^v + alpha_2^v, hand-checked
    orbit = set()
    for _, w in brute_force_group(b2):
        orbit.add(act(w, b2.simple_coroot(1), b2).coeffs)
    assert img.coeffs in orbit


def test_reflect_index_out_of_range(a2):
    with pytest.raises(IndexOutOfRange):
        reflect_weight(3, rho(a2), a2)


def test_act_empty_word_is_identity(a2):
    assert act(WeylWord(()), rho(a2), a2) == rho(a2)


def test_act_longest_word_on_rho_a2(a2):
    w0 = longest_element(ParabolicSubset.of({1, 2}), a2)
    assert act(w0, rho(a2), a2) == Weight((-1, -1))


def test_act_involutions_from_oracle(a2):
    for _, w in brute_force_group(a2):
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
        assert not act(w0, a2.simple_root(i), a2).is_positive()


def test_longest_element_b2_full(b2):
    w0 = longest_element(ParabolicSubset.of({1, 2}), b2)
    assert len(w0.letters) == 4 == len(b2.positive_roots)


def test_minimal_coset_rep_basics(a2):
    par = ParabolicSubset.of({1})
    assert is_minimal_coset_rep(WeylWord(()), par, a2)
    assert is_minimal_coset_rep(WeylWord((2,)), par, a2)
    assert not is_minimal_coset_rep(WeylWord((1,)), par, a2)


def test_enumerate_coset_reps_zero_length(a2):
    reps = enumerate_coset_reps(ParabolicSubset.of({1}), a2, 0)
    assert [w.letters for w in reps] == [()]


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


def test_brute_force_group_rank_guard():
    rs = build_root_system(TypeSpec("A", 4))
    with pytest.raises(RankTooLargeForOracle):
        brute_force_group(rs)


@pytest.mark.parametrize("spec", all_types(5), ids=str)
def test_w1_longest_element_squares_to_identity(spec):
    rs = build_root_system(spec)
    for par in all_parabolics(rs.rank, proper=False):
        w0 = longest_element(par, rs)
        square = WeylWord(w0.letters + w0.letters)
        assert act(square, rho(rs), rs) == rho(rs)
        for i in range(rs.rank):
            lam = Weight(tuple(1 if j == i else 0 for j in range(rs.rank)))
            assert act(square, lam, rs) == lam


def _supported(root, members):
    return all(c == 0 for j, c in enumerate(root.coeffs) if (j + 1) not in members)


@pytest.mark.parametrize("spec", all_types(4), ids=str)
def test_w2_w3_longest_element_inversions(spec):
    rs = build_root_system(spec)
    for par in all_parabolics(rs.rank, proper=False):
        w0 = longest_element(par, rs)
        supported = [r for r in rs.positive_roots if _supported(r, par.members)]
        assert len(w0.letters) == len(supported)
        assert length(w0, rs) == len(supported)
        for r in rs.positive_roots:
            img = act(w0, r, rs)
            if r in supported:
                assert not img.is_positive()
            else:
                assert img.is_positive()


@pytest.mark.parametrize("spec", all_types(3), ids=str)
def test_w4_coset_rep_cardinality(spec):
    rs = build_root_system(spec)
    group = brute_force_group(rs)
    for par in all_parabolics(rs.rank):
        reps = enumerate_coset_reps(par, rs, len(rs.positive_roots))
        wp_order = sum(1 for _, w in group if set(w.letters) <= set(par.members))
        assert len(reps) * wp_order == len(group)


@pytest.mark.parametrize("spec", all_types(3), ids=str)
def test_w5_outputs_are_reduced(spec):
    rs = build_root_system(spec)
    for par in all_parabolics(rs.rank, proper=False):
        w0 = longest_element(par, rs)
        assert w0.reduced and length(w0, rs) == len(w0.letters)
    for par in all_parabolics(rs.rank):
        for w in enumerate_coset_reps(par, rs, len(rs.positive_roots)):
            assert length(w, rs) == len(w.letters)


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
