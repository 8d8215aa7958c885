import pytest

from schubert_blowup import (
    FlagVariety, ParabolicSubset, TypeSpec, Verdict, build_root_system, classify)
from schubert_blowup.errors import EngineError
from schubert_blowup.special import (
    cominuscule_classify,
    cominuscule_nodes,
    dual_height,
    full_flag_classify,
    grassmannian_classify,
    kannan_saha_check,
)
from test_selfcheck import check_test

NO_CENTER_ON_P1 = r"^G/P has dimension 1, so it has no center of codimension >= 2$"


def test_grassmannian_classify_boundary():
    assert grassmannian_classify(2, 6, 6) == Verdict.FANO
    assert grassmannian_classify(2, 6, 7) == Verdict.WEAK_FANO_NOT_FANO
    assert grassmannian_classify(2, 6, 8) == Verdict.NOT_WEAK_FANO


def test_grassmannian_classify_range_errors():
    with pytest.raises(EngineError, match=r"need 1 <= r <= n-1, got r=0, n=5"):
        grassmannian_classify(0, 5, 3)
    with pytest.raises(EngineError, match=r"codimension 1 outside 2\.\.6"):
        grassmannian_classify(2, 5, 1)
    with pytest.raises(EngineError, match=r"codimension 7 outside 2\.\.6"):
        grassmannian_classify(2, 5, 7)


def test_grassmannian_point_classify():
    # a point center has codimension r(n-r)
    assert grassmannian_classify(2, 4, 4) == Verdict.FANO
    assert grassmannian_classify(1, 7, 6) == Verdict.FANO
    assert grassmannian_classify(6, 7, 6) == Verdict.FANO
    assert grassmannian_classify(2, 5, 6) == Verdict.WEAK_FANO_NOT_FANO
    assert grassmannian_classify(3, 6, 9) == Verdict.NOT_WEAK_FANO


def test_grassmannian_point_rejects_projective_line():
    with pytest.raises(EngineError, match=NO_CENTER_ON_P1):
        grassmannian_classify(1, 2, 1)


def test_every_law_finds_no_center_on_p1():
    # A1: G/P = P^1 has dimension 1, and the laws share the engine's message
    rs = build_root_system(TypeSpec("A", 1))
    for law in (lambda: classify(FlagVariety(rs, ParabolicSubset.of(())), 2),
                lambda: full_flag_classify(rs, 2),
                lambda: cominuscule_classify(rs, 1, 2),
                lambda: grassmannian_classify(1, 2, 2)):
        with pytest.raises(EngineError, match=NO_CENTER_ON_P1):
            law()


def test_cominuscule_nodes_per_type():
    assert cominuscule_nodes(build_root_system(TypeSpec("A", 4))) == frozenset({1, 2, 3, 4})
    assert cominuscule_nodes(build_root_system(TypeSpec("B", 4))) == frozenset({1})
    assert cominuscule_nodes(build_root_system(TypeSpec("C", 4))) == frozenset({4})
    assert cominuscule_nodes(build_root_system(TypeSpec("D", 5))) == frozenset({1, 4, 5})
    assert cominuscule_nodes(build_root_system(TypeSpec("E", 6))) == frozenset({1, 6})
    assert cominuscule_nodes(build_root_system(TypeSpec("E", 7))) == frozenset({7})
    for fam, rank in (("E", 8), ("F", 4), ("G", 2)):
        assert cominuscule_nodes(build_root_system(TypeSpec(fam, rank))) == frozenset()


def test_cominuscule_classify_type_a():
    # boundary at <rho, alpha_0^v> + 2 = n + 1 (needs dim Gr(2,n) >= n+1,
    # i.e. n >= 5, for the boundary codimension to be admissible)
    for n in (5, 6, 7):
        rs = build_root_system(TypeSpec("A", n - 1))
        assert cominuscule_classify(rs, 2, n) == Verdict.FANO
        assert cominuscule_classify(rs, 2, n + 1) == Verdict.WEAK_FANO_NOT_FANO


def test_cominuscule_classify_boundary_and_beyond():
    # D_5 node 4: dim 10, boundary at dual_height + 2 = 9
    rs = build_root_system(TypeSpec("D", 5))
    assert dual_height(rs) == 7
    assert cominuscule_classify(rs, 4, 8) == Verdict.FANO
    assert cominuscule_classify(rs, 4, 9) == Verdict.WEAK_FANO_NOT_FANO
    assert cominuscule_classify(rs, 4, 10) == Verdict.NOT_WEAK_FANO


def test_cominuscule_classify_rejects_non_cominuscule():
    rs = build_root_system(TypeSpec("E", 8))
    with pytest.raises(EngineError, match=r"node 1 is not cominuscule in E8"):
        cominuscule_classify(rs, 1, 2)
    with pytest.raises(EngineError, match=r"node 1 is not cominuscule in E8"):
        kannan_saha_check(rs, 1)


def test_full_flag_classify():
    rs = build_root_system(TypeSpec("A", 3))
    assert full_flag_classify(rs, 2) == Verdict.FANO
    assert full_flag_classify(rs, 3) == Verdict.WEAK_FANO_NOT_FANO
    assert full_flag_classify(rs, 4) == Verdict.NOT_WEAK_FANO
    with pytest.raises(EngineError, match=r"codimension 7 outside 2\.\.6"):
        full_flag_classify(rs, 7)


def test_kannan_saha_a2_by_hand():
    rs = build_root_system(TypeSpec("A", 2))
    assert kannan_saha_check(rs, 1)


test_s1_grassmannian_two_path = check_test("S1 Grassmannian two-path", per_type=False)
test_s3_cominuscule_two_path = check_test("S3 cominuscule two-path")
test_s4_full_flag_two_path = check_test("S4 full-flag two-path")
test_s5_kannan_saha_all_cominuscule = check_test("S5 Kannan-Saha coroot identity")
