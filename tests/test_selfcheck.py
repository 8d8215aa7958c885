"""Every invariant of selfcheck.CHECKS runs in the tests on every type up
to its TEST_RANK, which is at least the rank that `check` runs it at. Each
layer's test file turns its own checks into tests with `check_test` (I in
test_rootsys, W in test_weyl, F in test_flag, B in test_blowup, S in
test_special), under the names of the test bodies they replaced; a failing
case shows the check's counterexample."""

import importlib

import pytest

from schubert_blowup.conventions import RANK_CAP
from schubert_blowup.selfcheck import CHECKS, all_types

TEST_RANK = {
    "I1 closure order-insensitive": RANK_CAP,
    "I2 sign coherence": RANK_CAP,
    "I3 rho/highest-coroot pairing": RANK_CAP,
    "I4 root_as_weight injective": 8,
    "I5 simply-laced coroot identity": 8,
    "W1 longest element squares to id": 5,
    "W2 longest element length": 4,
    "W3 longest element root permutation": 4,
    "W4 coset rep counts": 3,  # the brute-force oracle stops at rank 3
    "W5 reducedness": 3,
    "F1 anticanonical weight in X*(P)": 6,
    "F2 closed forms vs Weyl word": 6,
    "F3 beta word-independence": 6,
    "F4 Grassmannian dimension": 8,
    "B1 cone duality": 6,
    "B2 anticanonical basis round trip": 4,
    "B3 classifier vs cone test": 4,
    "B4 scaling invariance": 3,
    "B5 margin certificates": 6,
    "S1 Grassmannian two-path": 8,
    "S3 cominuscule two-path": 8,
    "S4 full-flag two-path": 5,
    "S5 Kannan-Saha coroot identity": 8,
}

CHECK = {label: fn for label, fn, _ in CHECKS}

LAYER_TESTS = ("test_rootsys", "test_weyl", "test_flag", "test_blowup", "test_special")


def check_test(*labels, per_type=True):
    """A test asserting that each labelled check returns None on every type
    up to the labels' TEST_RANK: one case per type or, where the test it
    replaces was a single test, one test over all of them (per_type=False)."""
    specs = all_types(max(TEST_RANK[label] for label in labels))

    def run(spec):
        for label in labels:
            counterexample = CHECK[label](spec)
            assert counterexample is None, "%s on %s: %r" % (label, spec, counterexample)

    if per_type:
        test = pytest.mark.parametrize("spec", specs, ids=str)(run)
    else:
        def test():
            for spec in specs:
                run(spec)
    test.check_labels = labels
    return test


def test_every_check_is_tested_at_least_at_its_check_rank():
    assert list(TEST_RANK) == [label for label, _, _ in CHECKS]
    for label, _, rank in CHECKS:
        assert TEST_RANK[label] >= rank, label


def test_every_check_runs_in_a_layer_test():
    tested = set()
    for name in LAYER_TESTS:
        for obj in vars(importlib.import_module(name)).values():
            tested.update(getattr(obj, "check_labels", ()))
    assert tested == set(TEST_RANK)
