"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s or look at the captured output). All tolerances are
exact integer equalities; the stated runtime bounds are asserted."""

import time

from schubert_blowup import (
    FlagVariety,
    TypeSpec,
    Verdict,
    beta_values,
    build_root_system,
    classify,
    dimension,
    longest_element,
    picard_basis,
)
from schubert_blowup.special import (
    cominuscule_nodes,
    full_flag_classify,
    grassmannian_classify,
)
from schubert_blowup.weyl import ParabolicSubset
from schubert_blowup.selfcheck import all_parabolics, all_types, weyl_order
from test_cli import check_runs, run
from test_flag import grassmannian
from test_selfcheck import counterexample
from test_weyl import brute_force_group


def report(num, label, ok):
    print("ACCEPTANCE %d [%s]: %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (num, label)


def test_criterion_1_grassmannian_beta_law():
    t0 = time.perf_counter()
    ok = all(
        beta_values(grassmannian(r, n))[r] == n - 1
        for n in range(2, 10)
        for r in range(1, n)
    )
    elapsed = time.perf_counter() - t0
    report(1, "Grassmannian beta = n-1", ok and elapsed < 5.0)


def test_criterion_2_grassmannian_fano_boundary():
    t0 = time.perf_counter()
    # the engine's verdicts equal grassmannian_classify's (S1), whose law
    # is checked here, for every Gr(r, n) with n <= 9
    ok = all(counterexample("S1 Grassmannian two-path", spec) is None
             for spec in all_types(8, "A"))
    for n in range(2, 10):
        for r in range(1, n):
            for c in range(2, r * (n - r) + 1):
                expected = (
                    Verdict.FANO if c <= n
                    else Verdict.WEAK_FANO_NOT_FANO if c == n + 1
                    else Verdict.NOT_WEAK_FANO
                )
                ok = ok and grassmannian_classify(r, n, c) == expected
    elapsed = time.perf_counter() - t0
    report(2, "Grassmannian Fano boundary two-path", ok and elapsed < 10.0)


def test_criterion_3_point_center_census():
    fano, weak = set(), set()
    for n in range(2, 11):
        for r in range(1, n):
            if r * (n - r) < 2:
                continue
            v = grassmannian_classify(r, n, r * (n - r))
            engine = classify(grassmannian(r, n), r * (n - r)).verdict
            assert v == engine
            if v == Verdict.FANO:
                fano.add((r, n))
            elif v == Verdict.WEAK_FANO_NOT_FANO:
                weak.add((r, n))
    expected_fano = (
        {(1, n) for n in range(3, 11)}
        | {(n - 1, n) for n in range(3, 11)}
        | {(2, 4)}
    )
    # (3,5) is the same variety as (2,5) under Gr(r,n) ~ Gr(n-r,n), and
    # r(n-r) = n+1 holds for both labels; the census is duality-closed
    # just like the Fano set above lists (1,n) and (n-1,n) separately
    report(3, "point-center census",
           fano == expected_fano and weak == {(2, 5), (3, 5)})


def test_criterion_4_full_flag_law():
    ok = True
    for spec in all_types(5):
        # the engine's verdicts equal full_flag_classify's (S4), whose law
        # is checked here
        ok = ok and counterexample("S4 full-flag two-path", spec) is None
        rs = build_root_system(spec)
        fv = FlagVariety(rs, ParabolicSubset.of(()))
        betas = beta_values(fv)
        ok = ok and all(betas[a] == 1 for a in picard_basis(fv))
        d = dimension(fv)
        law = [Verdict.FANO, Verdict.WEAK_FANO_NOT_FANO] + [Verdict.NOT_WEAK_FANO] * d
        ok = ok and all(full_flag_classify(rs, c) == law[c - 2] for c in range(2, d + 1))
    report(4, "full-flag law (beta=1, boundary c=3)", ok)


def test_criterion_5_cominuscule_two_path():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for spec in all_types(8):
        ok = ok and counterexample("S3 cominuscule two-path", spec) is None
        ok = ok and counterexample("S5 Kannan-Saha coroot identity", spec) is None
        pairs += len(cominuscule_nodes(build_root_system(spec)))
    elapsed = time.perf_counter() - t0
    report(5, "cominuscule two-path (%d nodes)" % pairs, ok and pairs > 0 and elapsed < 60.0)


def test_criterion_6_cone_duality():
    ok = all(counterexample("B1 cone duality", spec) is None for spec in all_types(6))
    report(6, "cone duality identity matrix", ok)


def test_criterion_7_weyl_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for fam, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                      ("C", 3), ("G", 2)]:
        spec = TypeSpec(fam, rank)
        # W1 (w_{0,P} squares to id), W2 (its length is the number of Levi
        # roots) and W4 (|W^P| |W_P| = |W|, both orders from weyl_order)
        ok = ok and all(counterexample(label, spec) is None for label in (
            "W1 longest element squares to id",
            "W2 longest element length",
            "W4 coset rep counts",
        ))
        rs = build_root_system(spec)
        group = brute_force_group(rs)
        ok = ok and len(group) == weyl_order(rs.positive_roots)
        for par in all_parabolics(rs.rank, proper=False):
            # oracle: longest word among elements of W_P
            longest_in_oracle = max(
                (len(w.letters) for w in group if set(w.letters) <= par.members),
                default=0,
            )
            ok = ok and longest_in_oracle == len(longest_element(par, rs).letters)
    elapsed = time.perf_counter() - t0
    report(7, "Weyl oracle equivalence", ok and elapsed < 10.0)


def test_criterion_8_margin_certificates():
    ok = all(counterexample("B5 margin certificates", spec) is None for spec in all_types(6))
    report(8, "anticanonical margin certificates (every S_P and c to rank 6)", ok)


def test_criterion_9_determinism():
    check1, check2 = check_runs()
    table_args = ["table", "--families", "A,B,C,D,E,F,G", "--max-rank", "6",
                  "--format", "json"]
    table1 = run(table_args)
    table2 = run(table_args)
    ok = check1 == check2 and table1 == table2
    ok = ok and check1[0] == 0 and table1[0] == 0
    report(9, "byte-identical check/table reruns", ok)
