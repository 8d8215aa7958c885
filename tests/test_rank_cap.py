"""Ranks 9 to RANK_CAP of the classical families, against ground truth
from family formulas that the engine does not use, and the closed forms it
does use, |R^+| and 2 rho, against the closure on every type to RANK_CAP."""

import pytest

from schubert_blowup import (
    FlagVariety, TypeSpec, beta_values, build_root_system, conventions, dimension)
from schubert_blowup.conventions import RANK_BOUNDS, RANK_CAP
from schubert_blowup.table import all_types
from schubert_blowup.selfcheck import _maximal, closed_form_mismatch
from schubert_blowup.special import cominuscule_nodes
from schubert_blowup.weyl import ParabolicSubset

HIGH = [TypeSpec(f, n) for f in "ABCD" for n in range(9, RANK_CAP + 1)]


def maximal_dimension(spec, k):
    """dim G/P_k: Gr(k, n+1), OG(k, 2n+1), IG(k, 2n), OG(k, 2n), and the
    spinor variety at the two end nodes of D_n."""
    f, n = spec.family, spec.rank
    if f == "A":
        return k * (n + 1 - k)
    if f == "B":
        return k * (2 * n + 1 - k) - k * (k + 1) // 2
    if f == "C":
        return k * (2 * n - k) - k * (k - 1) // 2
    if k >= n - 1:
        return n * (n - 1) // 2
    return k * (2 * n - k) - k * (k + 1) // 2


@pytest.mark.parametrize("spec", all_types(RANK_CAP), ids=str)
def test_positive_root_count(spec):
    # the closed form that dim G/P reads, against the reflection closure
    assert (len(build_root_system(spec).positive_roots)
            == conventions.positive_root_count(spec.family, spec.rank))


@pytest.mark.parametrize("spec", all_types(RANK_CAP), ids=str)
def test_two_rho(spec):
    # the closed form of 2 rho that the Levi's factors read, against the
    # sum of the closure; all of S is the one factor, the type itself
    f, n = spec.family, spec.rank
    nodes = tuple(range(1, n + 1))
    assert conventions.simple_factors(f, n, frozenset(nodes)) == [(f, n, nodes)]
    roots = build_root_system(spec).positive_roots
    assert conventions.two_rho(f, n) == tuple(map(sum, zip(*(r.coeffs for r in roots))))


@pytest.mark.parametrize("spec", HIGH, ids=str)
def test_dimension_is_roots_outside_levi(spec):
    rs = build_root_system(spec)
    full = ParabolicSubset.of(())
    assert dimension(FlagVariety(rs, full)) == len(rs.positive_roots)
    for k in range(1, rs.rank + 1):
        assert dimension(_maximal(rs, k)) == maximal_dimension(spec, k)
    # and the same betas, -K and dim from the Weyl word of w_{0,P}
    maximals = [_maximal(rs, k).par for k in range(1, rs.rank + 1)]
    assert list(closed_form_mismatch(rs, [full] + maximals)) == []


@pytest.mark.parametrize("n", range(2, RANK_CAP + 2))
def test_grassmannian_beta_is_n_minus_1(n):
    rs = build_root_system(TypeSpec("A", n - 1))
    for r in range(1, n):
        assert beta_values(_maximal(rs, r))[r] == n - 1


@pytest.mark.parametrize("spec", [
    TypeSpec(f, n) for f in "BCD" for n in range(RANK_BOUNDS[f][0], RANK_CAP + 1)
], ids=str)
def test_cominuscule_beta_is_dual_height(spec):
    # I3 holds dual_height == h^vee - 1, S5 beta_node == dual_height at every
    # cominuscule node, both in their row tests to RANK_CAP; no check states
    # that there is such a node
    assert cominuscule_nodes(build_root_system(spec))
