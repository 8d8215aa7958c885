"""Every invariant of selfcheck.CHECKS runs in the tests on every type of
its row's families up to the test_rank of its row, which is at least the
rank that `check` runs it at. Each layer's test file turns its own checks
into tests with `check_test` (I in test_rootsys, W in test_weyl, F in
test_flag, B in test_blowup, S in test_special), one case per type; a
failing case shows the check's first counterexample. The tests that run an
unpatched check go through `counterexample`, so each (check, type) pair
runs once per session. NEGATIVE_CONTROLS gives every row one mutation of
the code it guards, under which it must fail on a type of its families."""

import functools
import importlib
import inspect
import pathlib
import sys

import pytest

from schubert_blowup import blowup, flag, reference, special, weyl
from schubert_blowup.reference import Coroot, Root, Weight
from schubert_blowup.rootsys import TypeSpec
from schubert_blowup.selfcheck import CHECKS, all_types, fails, first_counterexample
from schubert_blowup.weyl import WeylWord

LAYER_TESTS = ("test_rootsys", "test_weyl", "test_flag", "test_blowup", "test_special")


@functools.cache
def counterexample(label, spec):
    """The labelled check's first counterexample on `spec`, or None,
    evaluated once per session. Tests that monkeypatch a check or the
    conventions call first_counterexample themselves."""
    return first_counterexample(next(fn for name, fn, *_ in CHECKS if name == label), spec)


def row_types(label):
    """The types that the tests run the labelled check on: those of its
    row's families up to its test_rank."""
    rank, families = next((rank, fams) for name, _, _, rank, fams in CHECKS if name == label)
    return all_types(rank, families)


def check_test(label):
    """A test asserting that the labelled check returns None on every type
    of row_types(label), one case per type."""

    @pytest.mark.parametrize("spec", row_types(label), ids=str)
    def test(spec):
        found = counterexample(label, spec)
        assert found is None, "%s on %s: %r" % (label, spec, found)

    test.check_label = label
    return test


def test_every_check_is_tested_at_least_at_its_check_rank():
    for label, _, check_rank, test_rank, _ in CHECKS:
        assert test_rank >= check_rank, label


def test_every_check_is_a_generator():
    # a check yields its counterexamples; first_counterexample stops it
    for label, fn, *_ in CHECKS:
        assert inspect.isgeneratorfunction(fn), label


def test_every_check_runs_in_a_layer_test():
    tested = set()
    for name in LAYER_TESTS:
        for obj in vars(importlib.import_module(name)).values():
            tested.add(getattr(obj, "check_label", None))
    assert tested - {None} == {label for label, *_ in CHECKS}


# the test functions that a module still binds under more than one name:
# one name of each is that of a retired copy, kept for its ids until a
# later change retires it (ROADMAP "Second names and copies"); no other
# function has two
SHARED_NAMES = [
    ("test_flag", ("test_f1_anticanonical_weight_in_picard_group",
                   "test_f2_closed_forms_match_weyl_word", "test_f3_beta_word_independence")),
    ("test_rootsys", ("test_closure_order_insensitive",
                      "test_reflection_closure_equals_root_string_closure")),
    ("test_values", ("test_class_support_is_derived_not_a_field",
                     "test_curve_terms_and_e_degree_are_derived_not_fields")),
    ("test_weyl", ("test_w2_w3_longest_element_inversions", "test_w5_outputs_are_reduced")),
]


def test_no_other_test_function_has_two_names():
    shared = []
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        names = {}
        for name, obj in vars(importlib.import_module(path.stem)).items():
            if name.startswith("test_"):
                names.setdefault(id(obj), []).append(name)
        shared += [(path.stem, tuple(sorted(n))) for n in names.values() if len(n) > 1]
    assert shared == SHARED_NAMES


# (row, type, module, name, mutation, the row's first counterexample on the
# type, every row that fails there): the mutation maps the real module.name
# to a broken stand-in, which replaces it wherever the package imported it
NEGATIVE_CONTROLS = [
    # alpha_1 + alpha_2 + alpha_3 left out of the reflection closure
    ("I1", "A3", reference, "_positive_roots", lambda real: lambda rs: real(rs) - {(1, 1, 1)},
     ((0, 1, 2), (1, 1, 1)), {"I1", "I2", "I3", "W4", "W5", "F2", "S3", "S4", "S5"}),
    # 2 alpha_1 + 3 alpha_2, of the height of G2's highest root, let in
    ("I2", "G2", reference, "_positive_roots", lambda real: lambda rs: real(rs) | {(2, 3)},
     ((2, 3), (3, 2)), {"I1", "I2", "W3", "W4", "W5", "F2"}),
    # the symmetrizers of G2 swapped: the highest coroot changes
    ("I3", "G2", reference, "_symmetrizers", lambda real: lambda rs: real(rs)[::-1],
     (11, 3, 5), {"I3"}),
    # <beta, alpha_1^vee> dropped from the weight of a root
    ("I4", "B2", reference, "root_as_weight",
     lambda real: lambda r, rs: Weight((0,) + real(r, rs).coeffs[1:]),
     ((0, 1), (1, 2)), {"I4"}),
    # a coroot read in reverse node order
    ("I5", "A3", reference, "coroot_of", lambda real: lambda r, rs: Coroot(real(r, rs).coeffs[::-1]),
     ((0, 0, 1),), {"I5"}),
    # one letter short of w_{0,P}
    ("W3", "A2", weyl, "longest_element", lambda real: lambda par, rs: WeylWord(
        real(par, rs).letters[:-1]), ([1], (1, 0)), {"W3", "F2", "S5"}),
    # the last orbit point of W^P dropped
    ("W4", "A2", weyl, "enumerate_coset_reps",
     lambda real: lambda par, rs, n: real(par, rs, n)[:-1], ([], 5, 1), {"W4"}),
    # act reads its word left to right
    ("W5", "A2", reference, "act", lambda real: lambda w, x, rs: real(WeylWord(w.letters[::-1]), x, rs),
     ((1, 2), (-2, 1)), {"W5"}),
    # schubert_codim reads its word left to right, lookup and replay alike: with
    # S_P = {1}, (2, 1) is no W^P word of A2, but (1, 2) is
    ("W6", "A2", flag, "schubert_codim",
     lambda real: lambda fv, w: real(fv, WeylWord(w.letters[::-1])), ([1], (2, 1), (2, 0)),
     {"W6"}),
    # one more on the last Bourbaki coefficient of 2 rho on C_m
    ("F2", "C3", flag, "two_rho",
     lambda real: lambda f, r: real(f, r)[:-1] + (real(f, r)[-1] + (f == "C"),),
     ([2, 3],), {"F2"}),
    # |R^+| of A_n read as that of A_{n-1}
    ("F4", "A2", flag, "positive_root_count",
     lambda real: lambda f, r: real(f, r) - r * (f == "A"), (1, 3, 1), {"F2", "F4"}),
    # E_Z . e = +1: H - E_Z pairs with e to -1
    ("B1", "A2", blowup, "intersect",
     lambda real: lambda d, k: real(d, k) + 2 * d.exceptional_coeff * k.e_coeff,
     ([], 2), {"B1", "B3", "B5"}),
    # > for >= in is_nef: -K on the nef boundary (A2/B at c = 3) reads as not nef
    ("B3", "A2", reference, "is_nef", lambda real: reference.is_ample, ([], 3), {"B3"}),
    # every margin of -K one more in its second basis
    ("B5", "A2", blowup, "anticanonical_class", lambda real: lambda fv, c: (
        real(fv, c)[0], tuple(m + 1 for m in real(fv, c)[1][:-1]) + (c - 1,)), ([], 2), {"B5"}),
    # the Grassmannian boundary at c = n + 2
    ("S1", "A4", special, "grassmannian_classify",
     lambda real: lambda r, n, c: special._verdict_of(n + 2 - c), (2, 5, 6), {"S1"}),
    # the cominuscule boundary at c = <rho, alpha_0^vee> + 3
    ("S3", "C3", special, "cominuscule_classify", lambda real: lambda rs, node, c: (
        special._verdict_of(special.dual_height(rs) + 3 - c)), (3, 5), {"S3"}),
    # the full-flag boundary at c = 4
    ("S4", "A2", special, "full_flag_classify",
     lambda real: lambda rs, c: special._verdict_of(4 - c), (3,), {"S4"}),
    # a coroot moved by the root formula, which reads the Cartan rows
    ("S5", "B3", reference, "act", lambda real: lambda w, x, rs: Coroot(real(
        w, Root(x.coeffs), rs).coeffs) if type(x) is Coroot else real(w, x, rs), (1,), {"S5"}),
]


@pytest.mark.parametrize("row, family_rank, module, name, mutation, first, failing",
                         NEGATIVE_CONTROLS, ids=[c[0] for c in NEGATIVE_CONTROLS])
def test_negative_control(monkeypatch, row, family_rank, module, name, mutation, first, failing):
    real = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("schubert_blowup") and (
                vars(mod).get(name) is real):
            monkeypatch.setattr(mod, name, mutation(real))
    spec = TypeSpec(family_rank[0], int(family_rank[1:]))
    # a row counts as failing only on a type of its families
    checks = {label.split()[0]: (fn, families) for label, fn, _, _, families in CHECKS}
    assert spec.family in checks[row][1]
    assert first_counterexample(checks[row][0], spec) == first
    assert {r for r, (fn, families) in checks.items()
            if spec.family in families and fails(fn, [spec])} == failing


def test_every_check_has_one_negative_control():
    assert sorted(c[0] for c in NEGATIVE_CONTROLS) == sorted(
        label.split()[0] for label, *_ in CHECKS)
