import hashlib
import itertools
import re
import sys

import pytest

from schubert_blowup import (
    Coroot,
    FlagVariety,
    ParabolicSubset,
    Root,
    TypeSpec,
    Verdict,
    Weight,
    act,
    anticanonical_class,
    anticanonical_weight,
    build_root_system,
    classify,
    coroot_of,
    dimension,
    enumerate_coset_reps,
    height,
    intersect,
    length,
    longest_element,
    mori_generators,
    nef_generators,
    pairing,
    rho,
    root_as_weight,
    schubert_codim,
)
from schubert_blowup import cli, conventions, reference, rootsys
from schubert_blowup.reference import _symmetrizers, cartan, highest_root, simple_coroot
from schubert_blowup.conventions import RANK_BOUNDS, RANK_CAP
from schubert_blowup.errors import EngineError, InvariantViolation
from schubert_blowup.selfcheck import all_types
from test_selfcheck import check_test


def simple_root(rs, i):
    """alpha_i of rs, 1-based."""
    return Root(tuple(int(j == i - 1) for j in range(rs.rank)))


# positive root counts, fixed from |R+| = (dim G - rank)/2 per type
POS_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16,
    ("D", 4): 12, ("D", 5): 20, ("D", 6): 30,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
}


@pytest.mark.parametrize("family,rank", sorted(POS_ROOT_COUNTS))
def test_positive_root_counts(family, rank):
    rs = build_root_system(TypeSpec(family, rank))
    assert len(rs.positive_roots) == POS_ROOT_COUNTS[(family, rank)]


def test_rank_one():
    rs = build_root_system(TypeSpec("A", 1))
    assert [r.coeffs for r in rs.positive_roots] == [(1,)]


def test_a2_closure_by_hand():
    rs = build_root_system(TypeSpec("A", 2))
    assert {r.coeffs for r in rs.positive_roots} == {(1, 0), (0, 1), (1, 1)}


def test_g2_highest_root():
    rs = build_root_system(TypeSpec("G", 2))
    assert len(rs.positive_roots) == 6
    assert highest_root(rs) == Root((3, 2))
    assert height(highest_root(rs)) == 5


def no_closure(rs):
    pytest.fail("the closure of R^+ ran")


def no_dense_rows(rs):
    pytest.fail("the dense Cartan rows were read")


def no_symmetrizers(rs):
    pytest.fail("the symmetrizers were computed")


@pytest.mark.parametrize("family, rank, members", [
    ("B", 16, ()), ("E", 8, range(2, 9)),
], ids=["B16-full-flag", "E8-P1"])
def test_queries_never_build_the_positive_roots(monkeypatch, capsys, family, rank, members):
    # in every package module that binds them: no closure of any kind, for
    # R^+ or for a Levi's roots, nor the dense Cartan rows, which only the
    # pairings of a Root read, nor the symmetrizers, which only
    # reference.coroot_of reads, is left on a query path
    for name, fake in (("_positive_roots", no_closure), ("cartan", no_dense_rows),
                       ("_symmetrizers", no_symmetrizers)):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("schubert_blowup") and hasattr(module, name):
                monkeypatch.setattr(module, name, fake)
    fv = FlagVariety(build_root_system(TypeSpec(family, rank)), ParabolicSubset.of(members))
    assert classify(fv, 2).verdict == Verdict.FANO
    anticanonical_class(fv, 2)
    nef, mori = nef_generators(fv, 2), mori_generators(fv, 2)
    assert [[intersect(d, k) for k in mori] for d in nef] == [
        [int(i == j) for j in range(len(mori))] for i in range(len(nef))]
    argv = ["--type", family, "--rank", str(rank), "--parabolic", ",".join(map(str, members)),
            "--codim", "2"]
    for command in ("classify", "cones"):
        for fmt in ("text", "json"):
            assert cli.main([command, *argv, "--format", fmt]) == 0
    # the flag invariants of every type, maximal parabolics and full flags
    table = ["table", "--families", "A,B,C,D,E,F,G", "--max-rank", str(RANK_CAP)]
    assert cli.main(table) == cli.main([*table, "--full-flag"]) == 0
    assert capsys.readouterr().err == ""


def test_positive_roots_are_built_once_on_first_read(monkeypatch):
    calls = []
    real = reference._positive_roots
    monkeypatch.setattr(reference, "_positive_roots",
                        lambda rs: calls.append(rs) or real(rs))
    rs = build_root_system(TypeSpec("A", 3))
    assert calls == []
    roots = rs.positive_roots
    assert rs.positive_roots is roots and highest_root(rs) == Root((1, 1, 1))
    assert calls == [rs]


def test_a_type_is_kept_from_its_second_build_on():
    first = build_root_system(TypeSpec("A", 3))
    assert rootsys.kept_varieties(first) is None
    second = build_root_system(TypeSpec("A", 3))
    assert second is not first and second == first and rootsys.kept_varieties(second) == {}
    assert build_root_system(TypeSpec("A", 3)) is second
    assert rootsys.kept_varieties(build_root_system(TypeSpec("A", 4))) is None
    # the register is the one record: once cleared, a system still held is not kept
    rootsys._systems.clear()
    assert rootsys.kept_varieties(second) is None


def test_a_sweep_keeps_nothing(capsys):
    # table builds each type once, so every type is noted and none is kept
    assert cli.main(["table", "--families", "A,B,C,D,E,F,G", "--max-rank", str(RANK_CAP)]) == 0
    assert len(rootsys._systems) == 64 and set(rootsys._systems.values()) == {None}


@pytest.mark.parametrize("spec", all_types(RANK_CAP), ids=str)
def test_columns_are_the_nonzero_entries_of_each_cartan_column(spec):
    rs = build_root_system(spec)
    n = rs.rank
    assert rs.columns == tuple(
        tuple((j, cartan(rs)[j][i]) for j in range(n) if cartan(rs)[j][i] != 0) for i in range(n))


# SHA-256 of repr of the dense rows, the columns (as tuples) and the
# symmetrizers of every type to RANK_CAP, recorded from the earlier tables,
# which wrote each family's rows and symmetrizers out by hand, so that the
# tables derived from conventions._diagram keep every entry
def test_cartan_tables_pinned():
    tables = [(cartan(rs), tuple(map(tuple, rs.columns)), _symmetrizers(rs))
              for rs in map(build_root_system, all_types(RANK_CAP))]
    assert len(tables) == 64
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "78382d3bcd517e010ae9a78cd8b71e943722e30c86de8bd2d4296802f3822073")


def test_dense_rows_are_built_once_on_first_read(monkeypatch):
    monkeypatch.setattr(reference, "_positive_roots", no_closure)
    rs = build_root_system(TypeSpec("E", 8))
    # every walk and the flag invariants read the sparse columns alone
    fv = FlagVariety(rs, ParabolicSubset.of(range(2, 9)))
    reps = enumerate_coset_reps(fv.par, rs, dimension(fv))
    assert [schubert_codim(fv, w).codim for w in reps[:3]] == [78, 77, 76]
    w0 = longest_element(fv.par, rs)
    assert length(w0, rs) == 42
    assert rho(rs) + act(w0, rho(rs), rs) == anticanonical_weight(fv)
    assert act(w0, simple_coroot(rs, 1), rs).rank == 8 and "cartan" not in vars(rs)
    rows = cartan(rs)
    assert cartan(rs) is rows and vars(rs)["cartan"] is rows
    # w_{0,P} is an involution; acting on a Root reads the cached rows
    assert act(w0, act(w0, simple_root(rs, 1), rs), rs) == simple_root(rs, 1)
    assert cartan(rs) is rows


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("D", 3), ("E", 9), ("F", 5), ("G", 3), ("H", 2), ("A", 17)])
def test_inadmissible_ranks_rejected(family, rank):
    message = ("unknown family 'H'" if family == "H" else
               "rank %d not admissible for family %s (allowed %d..%d)"
               % ((rank, family) + RANK_BOUNDS[family]))
    with pytest.raises(EngineError, match=re.escape(message)):
        TypeSpec(family, rank)


@pytest.mark.parametrize("args, message", [
    ((0,), "max rank must be at least 1, got 0"),
    ((RANK_CAP + 1,), "max rank capped at 16 for sweeps"),
    ((4, []), "empty family list"),
], ids=["rank-0", "above-cap", "no-families"])
def test_all_types_rejects_what_table_rejects(args, message):
    with pytest.raises(EngineError, match="^%s$" % message):
        all_types(*args)


def test_mixed_sign_root_rejected():
    with pytest.raises(EngineError, match=r"mixed-sign root coordinates \(1, -1\)"):
        Root((1, -1))


def test_height_of_simple_roots():
    rs = build_root_system(TypeSpec("B", 3))
    for i in range(1, 4):
        assert height(simple_root(rs, i)) == 1


def test_height_of_type_a_highest_root():
    # ht(alpha_0) = n-1 in A_{n-1}
    for n in range(2, 10):
        rs = build_root_system(TypeSpec("A", n - 1))
        assert height(highest_root(rs)) == n - 1


def test_pairing_rho_with_simple_coroots():
    rs = build_root_system(TypeSpec("D", 4))
    for i in range(1, 5):
        assert pairing(rho(rs), simple_coroot(rs, i)) == 1


def test_pairing_rho_with_highest_coroot_type_a():
    for n in range(2, 10):
        rs = build_root_system(TypeSpec("A", n - 1))
        assert pairing(rho(rs), coroot_of(highest_root(rs), rs)) == n - 1


def test_pairing_rho_with_highest_coroot_g2():
    # dual Coxeter number of G_2 is 4
    rs = build_root_system(TypeSpec("G", 2))
    assert pairing(rho(rs), coroot_of(highest_root(rs), rs)) == 3


def test_pairing_rank_mismatch():
    with pytest.raises(EngineError, match=r"weight rank 2 vs coroot rank 3"):
        pairing(Weight((1, 1)), Coroot((1, 1, 1)))


def test_coroot_of_simple_roots():
    rs = build_root_system(TypeSpec("C", 3))
    for i in range(1, 4):
        assert coroot_of(simple_root(rs, i), rs) == simple_coroot(rs, i)


def test_coroot_of_a2_highest_root():
    rs = build_root_system(TypeSpec("A", 2))
    assert coroot_of(Root((1, 1)), rs) == Coroot((1, 1))


def test_coroot_of_b2_highest_root():
    # alpha_0 = alpha_1 + 2 alpha_2 is long; its coroot is alpha_1^v + alpha_2^v
    rs = build_root_system(TypeSpec("B", 2))
    assert highest_root(rs) == Root((1, 2))
    assert coroot_of(highest_root(rs), rs) == Coroot((1, 1))


def test_coroot_of_rejects_non_roots():
    rs = build_root_system(TypeSpec("A", 2))
    with pytest.raises(EngineError, match=r"\(2, 0\) is not a root of A2"):
        coroot_of(Root((2, 0)), rs)
    # a root of another rank is no root of rs
    with pytest.raises(EngineError, match=r"\(1, 0, 0\) is not a root of A2"):
        coroot_of(Root((1, 0, 0)), rs)


def test_root_as_weight_reads_cartan_columns():
    rs = build_root_system(TypeSpec("A", 2))
    assert root_as_weight(Root((1, 0)), rs) == Weight((2, -1))
    assert root_as_weight(Root((0, 0)), rs) == Weight((0, 0))
    assert root_as_weight(Root((1, 1)), rs) == Weight((1, 1))


def test_rho_is_all_ones():
    assert rho(build_root_system(TypeSpec("A", 1))) == Weight((1,))
    assert rho(build_root_system(TypeSpec("A", 3))) == Weight((1, 1, 1))


@pytest.mark.parametrize("spec", all_types(RANK_CAP), ids=str)
def test_rho_is_half_sum_of_positive_roots(spec):
    rs = build_root_system(spec)
    total = [0] * rs.rank
    for r in rs.positive_roots:
        w = root_as_weight(r, rs)
        total = [a + b for a, b in zip(total, w.coeffs)]
    assert all(t == 2 for t in total)


@pytest.mark.parametrize("spec", all_types(RANK_CAP), ids=str)
def test_symmetrized_cartan_is_symmetric(spec):
    rs = build_root_system(spec)
    C = cartan(rs)
    d = _symmetrizers(rs)
    n = rs.rank
    for i, j in itertools.product(range(n), range(n)):
        assert d[i] * C[i][j] == d[j] * C[j][i]
        if i == j:
            assert C[i][j] == 2
        else:
            assert C[i][j] in (0, -1, -2, -3)
            assert (C[i][j] == 0) == (C[j][i] == 0)


# the name of a rank-8 copy of this test, kept as a second name for its ids
test_closure_order_insensitive = test_reflection_closure_equals_root_string_closure = check_test(
    "I1 closure order-insensitive")
test_sign_coherence_and_unique_highest = check_test("I2 sign coherence")
test_i3_rho_pairs_with_highest_coroot = check_test("I3 rho/highest-coroot pairing")
test_root_as_weight_injective = check_test("I4 root_as_weight injective")
test_simply_laced_coroot_coefficientwise = check_test("I5 simply-laced coroot identity")


# the negative control of the `check` tests: A2 with C[0][1] = -2, patched
# in as the sparse columns of conventions.cartan_columns
CORRUPT_A2_ROWS = ((2, -2), (-1, 2))
CORRUPT_A2_COLUMNS = tuple(tuple((i, row[j]) for i, row in enumerate(CORRUPT_A2_ROWS) if row[j])
                           for j in range(2))


def corrupt_a2_cartan(monkeypatch):
    real = conventions.cartan_columns
    monkeypatch.setattr(conventions, "cartan_columns", lambda f, r: (
        CORRUPT_A2_COLUMNS if (f, r) == ("A", 2) else real(f, r)))


def test_coroot_of_raises_on_non_integral_coefficient(monkeypatch):
    corrupt_a2_cartan(monkeypatch)
    rs = build_root_system(TypeSpec("A", 2))
    assert highest_root(rs) == Root((2, 1))
    with pytest.raises(InvariantViolation):
        coroot_of(highest_root(rs), rs)
