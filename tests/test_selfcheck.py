"""Every invariant of selfcheck.CHECKS runs in the tests on every type up
to the test_rank of its row, which is at least the rank that `check` runs
it at. Each layer's test file turns its own checks into tests with
`check_test` (I in test_rootsys, W in test_weyl, F in test_flag, B in
test_blowup, S in test_special), under the names of the test bodies they
replaced; a failing case shows the check's first counterexample. The
tests that run an unpatched check go through `counterexample`, so each
(check, type) pair runs once per session."""

import functools
import importlib
import inspect

import pytest

from schubert_blowup.selfcheck import CHECKS, all_types, first_counterexample

LAYER_TESTS = ("test_rootsys", "test_weyl", "test_flag", "test_blowup", "test_special")


@functools.cache
def counterexample(label, spec):
    """The labelled check's first counterexample on `spec`, or None,
    evaluated once per session. Tests that monkeypatch a check or the
    conventions call first_counterexample themselves."""
    return first_counterexample(next(fn for name, fn, _, _ in CHECKS if name == label), spec)


def types_for(*labels):
    """Every type up to the largest test_rank of the labelled checks."""
    return all_types(max(rank for name, _, _, rank in CHECKS if name in labels))


def check_test(*labels, per_type=True):
    """A test asserting that each labelled check returns None on every type
    up to the labels' test_rank: one case per type or, where the test it
    replaces was a single test, one test over all of them (per_type=False)."""
    specs = types_for(*labels)

    def run(spec):
        for label in labels:
            found = counterexample(label, spec)
            assert found is None, "%s on %s: %r" % (label, spec, found)

    if per_type:
        test = pytest.mark.parametrize("spec", specs, ids=str)(run)
    else:
        def test():
            for spec in specs:
                run(spec)
    test.check_labels = labels
    return test


def test_every_check_is_tested_at_least_at_its_check_rank():
    for label, _, check_rank, test_rank in CHECKS:
        assert test_rank >= check_rank, label


def test_every_check_is_a_generator():
    # a check yields its counterexamples; first_counterexample stops it
    for label, fn, _, _ in CHECKS:
        assert inspect.isgeneratorfunction(fn), label


def test_every_check_runs_in_a_layer_test():
    tested = set()
    for name in LAYER_TESTS:
        for obj in vars(importlib.import_module(name)).values():
            tested.update(getattr(obj, "check_labels", ()))
    assert tested == {label for label, _, _, _ in CHECKS}
