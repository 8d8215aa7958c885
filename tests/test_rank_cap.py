"""Ranks 9 to RANK_CAP of the classical families, against ground truth
from family formulas that the engine does not use."""

import pytest

from schubert_blowup import FlagVariety, TypeSpec, beta_values, build_root_system, dimension
from schubert_blowup.conventions import RANK_BOUNDS, RANK_CAP
from schubert_blowup.selfcheck import closed_forms_agree, dual_coxeter_number
from schubert_blowup.special import cominuscule_nodes, dual_height
from schubert_blowup.weyl import ParabolicSubset

HIGH = [TypeSpec(f, n) for f in "ABCD" for n in range(9, RANK_CAP + 1)]


def positive_root_count(spec):
    n = spec.rank
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[spec.family]


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


def maximal(rs, node):
    return FlagVariety(rs, ParabolicSubset.of(set(range(1, rs.rank + 1)) - {node}))


@pytest.mark.parametrize("spec", HIGH, ids=str)
def test_positive_root_count(spec):
    assert len(build_root_system(spec).positive_roots) == positive_root_count(spec)


@pytest.mark.parametrize("spec", HIGH, ids=str)
def test_dimension_is_roots_outside_levi(spec):
    rs = build_root_system(spec)
    full = ParabolicSubset.of(())
    assert dimension(FlagVariety(rs, full)) == positive_root_count(spec)
    for k in range(1, rs.rank + 1):
        assert dimension(maximal(rs, k)) == maximal_dimension(spec, k)
    # and the same betas, -K and dim from the Weyl word of w_{0,P}
    maximals = [maximal(rs, k).par for k in range(1, rs.rank + 1)]
    assert closed_forms_agree(rs, [full] + maximals)


@pytest.mark.parametrize("n", range(2, RANK_CAP + 2))
def test_grassmannian_beta_is_n_minus_1(n):
    rs = build_root_system(TypeSpec("A", n - 1))
    for r in range(1, n):
        assert beta_values(maximal(rs, r))[r] == n - 1


@pytest.mark.parametrize("spec", [
    TypeSpec(f, n) for f in "BCD" for n in range(RANK_BOUNDS[f][0], RANK_CAP + 1)
], ids=str)
def test_cominuscule_beta_is_dual_height(spec):
    rs = build_root_system(spec)
    h = dual_coxeter_number(spec) - 1
    assert dual_height(rs) == h
    nodes = sorted(cominuscule_nodes(rs))
    assert nodes
    for node in nodes:
        assert beta_values(maximal(rs, node))[node] == h
