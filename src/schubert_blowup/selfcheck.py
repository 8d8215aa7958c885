"""Invariant checks behind the `check` CLI command.

Each check takes one RootSystem and yields its counterexamples, each a
short tuple such as (sorted S_P, c). first_counterexample builds the
system of a TypeSpec and stops at the first one; it is the one place a
check becomes a verdict. CHECKS is the one table of checks and ranks: each
row gives the rank up to which `check` runs the check and the larger one
up to which the pytest suite runs it, per type. run_all evaluates them in
a fixed order so the report is deterministic, and reports a check that
crashes apart from one that fails; run prints that report for the `check`
command, as table.run prints the table. They are the one place the internal
invariants are verified: rootsys and flag re-check none of them at run
time. The second derivations that only a check uses live here beside it:
I1's root-string closure, W5's inversion count (which test_weyl reads
too) and S5's Kannan-Saha coroot identity.

The rows are I1-I5 (root system), W3-W6 (Weyl words), F2 and F4 (flag
invariants), B1, B3 and B5 (blow-up classes) and S1, S3-S5 (the laws of
special). Each has one entry in NEGATIVE_CONTROLS in
tests/test_selfcheck.py, a mutation under which it fails; a row that no
mutation made fail apart from another row was folded into that row.
"""

import collections
import itertools
import random

from . import blowup, flag, reference, special, weyl
from .conventions import RANK_CAP
from .errors import EngineError
from .reference import act, cartan, coroot_of, height, highest_root, pairing, rho, simple_coroot
from .rootsys import build_root_system
from .table import all_types
from .weyl import ParabolicSubset, WeylWord, length, longest_element


def all_parabolics(rank, proper=True):
    nodes = range(1, rank + 1)
    subs = []
    for k in range(rank + 1 if not proper else rank):
        for combo in itertools.combinations(nodes, k):
            subs.append(ParabolicSubset(combo))
    return subs


def _maximal(rs, node):
    return flag.FlagVariety(rs, ParabolicSubset(set(range(1, rs.rank + 1)) - {node}))


def _blowups(rs):
    """(fv, c) for every proper S_P of `rs` and every c in 2..dim G/P."""
    for par in all_parabolics(rs.rank):
        fv = flag.FlagVariety(rs, par)
        for c in range(2, flag.dimension(fv) + 1):
            yield fv, c


# ---- rootsys invariants -------------------------------------------------

def _pair_root_coroot(cartan, coeffs, i):
    # <beta, alpha_i^vee> for beta = sum_j k_j alpha_j (0-based i)
    return sum(cartan[i][j] * k for j, k in enumerate(coeffs))


def _closure(cartan, order):
    """Positive roots by the root-string closure rule.

    Starting from the simple roots, beta + alpha_i is adjoined whenever
    q = p - <beta, alpha_i^vee> > 0, where p is the largest k with
    beta - k*alpha_i still a root. `order` permutes the processing order
    of the simple roots (the result must not depend on it).
    """
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in order:
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    t = tuple(down)
                    if any(c for c in t) and tuple(t) in roots:
                        p += 1
                    else:
                        break
                q = p - _pair_root_coroot(cartan, beta, i)
                if q > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        new.append(t)
        frontier = new
    return roots


def check_I1_closure_order_insensitive(rs):
    """The reflection closure that build_root_system uses equals the
    root-string closure, in the natural and in shuffled orders."""
    base = {r.coeffs for r in rs.positive_roots}
    order = list(range(rs.rank))
    rng = random.Random(0)
    for _ in range(5):
        diff = _closure(cartan(rs), order) ^ base
        if diff:
            yield tuple(order), min(diff)
        rng.shuffle(order)


def check_I2_sign_coherence(rs):
    """Every positive root has nonnegative coefficients, and the highest
    root is the only root of its height."""
    for r in rs.positive_roots:
        if any(c < 0 for c in r.coeffs):
            yield (r.coeffs,)
    top = [r.coeffs for r in rs.positive_roots if height(r) == height(highest_root(rs))]
    if len(top) != 1:
        yield tuple(top)


# dual Coxeter numbers, fixed independently of any computation here
def dual_coxeter_number(spec):
    n = spec.rank
    if spec.family == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    return {"A": n + 1, "B": 2 * n - 1, "C": n + 1, "D": 2 * n - 2,
            "F": 9, "G": 4}[spec.family]


def check_I3_rho_pairing_highest_coroot(rs):
    lhs = pairing(rho(rs), coroot_of(highest_root(rs), rs))
    # in the simply-laced types this coincides with ht(alpha_0)
    if lhs != dual_coxeter_number(rs.spec) - 1 or (
            rs.spec.family in "ADE" and lhs != height(highest_root(rs))):
        yield lhs, dual_coxeter_number(rs.spec) - 1, height(highest_root(rs))


def check_I4_root_as_weight_injective(rs):
    seen = {}
    for r in rs.positive_roots:
        other = seen.setdefault(reference.root_as_weight(r, rs).coeffs, r)
        if other is not r:
            yield other.coeffs, r.coeffs


def check_I5_simply_laced_coroot_identity(rs):
    if rs.spec.family not in "ADE":
        return
    for r in rs.positive_roots:
        if coroot_of(r, rs).coeffs != r.coeffs:
            yield (r.coeffs,)


# ---- weyl invariants ----------------------------------------------------

def _in_levi(r, members):
    return all(c == 0 for j, c in enumerate(r.coeffs) if (j + 1) not in members)


def check_W3_longest_element_permutes(rs):
    for par in all_parabolics(rs.rank, proper=False):
        w0 = longest_element(par, rs)
        for r in rs.positive_roots:
            # w_{0,P} sends exactly the roots of the Levi negative
            if act(w0, r, rs).is_positive() == _in_levi(r, par.members):
                yield sorted(par.members), r.coeffs


def weyl_order(roots):
    """|W| = prod (e_i + 1) over the exponents e_i, the partition dual to
    the number of positive roots at each height (Kostant, Amer. J. Math.
    81, 1959; Humphreys, Reflection Groups and Coxeter Groups, 3.9). On a
    reducible system, such as a Levi's, the product over its factors."""
    at_height = collections.Counter(height(r) for r in roots)
    order = 1
    for i in range(1, at_height[1] + 1):
        order *= 1 + sum(n >= i for n in at_height.values())
    return order


def check_W4_coset_rep_count(rs):
    order = weyl_order(rs.positive_roots)
    for par in all_parabolics(rs.rank):
        reps = weyl.enumerate_coset_reps(par, rs, len(rs.positive_roots))
        wp_order = weyl_order([r for r in rs.positive_roots if _in_levi(r, par.members)])
        if len(reps) * wp_order != order:
            yield sorted(par.members), len(reps), wp_order


def inversion_count(word, rs):
    """#{beta > 0 : w(beta) < 0}: every positive root reflected by
    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, letter by letter from
    the right, with <beta, alpha_i^vee> read from the nonzero entries of
    Cartan row i. R^+ is held as its coordinate columns, of which s_i
    changes column i alone."""
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan(rs)]
    cols = [list(col) for col in zip(*(b.coeffs for b in rs.positive_roots))]
    for i in reversed(word.letters):
        col = cols[i - 1]
        for j, a in rows[i - 1]:
            col = [x - a * y for x, y in zip(col, cols[j])]
        cols[i - 1] = col
    return sum(1 for b in zip(*cols) if min(b) < 0)


def check_W5_reducedness(rs):
    """length (a signed replay) = inversion_count on the words of
    longest_element and on all of W^P, which equal len(w), and on their
    squares, most of which are not reduced. And act on the reversed word
    maps rho to the replay's w^{-1}(rho): most W^P words are no
    involution, so this sees the order in which act reads its letters."""
    words = [longest_element(par, rs) for par in all_parabolics(rs.rank, proper=False)]
    for par in all_parabolics(rs.rank):
        words += weyl.enumerate_coset_reps(par, rs, len(rs.positive_roots))
    for w in dict.fromkeys(words):  # the W^P overlap: each word once
        img = act(WeylWord(w.letters[::-1]), rho(rs), rs).coeffs
        if list(img) != weyl._replay(w, rs)[0]:
            yield w.letters, img
        for x in (w, WeylWord(w.letters * 2)):
            inversions = inversion_count(x, rs)
            if length(x, rs) != inversions or x is w and inversions != len(w.letters):
                yield x.letters, inversions


def check_W6_lookup_vs_replay(rs):
    """schubert_codim's lookup (weyl._coset_length), which serves the very
    words that enumerate_coset_reps has just returned by their mark, against
    the replay's length and W^P test, on every W^P word and on each with a
    letter of S_P appended, which is never minimal and never marked, so it is
    replayed: the same (dim, codim), or both not minimal (an EngineError)."""
    for par in all_parabolics(rs.rank):
        fv = flag.FlagVariety(rs, par)
        dim = flag.dimension(fv)
        for w in weyl.enumerate_coset_reps(par, rs, len(rs.positive_roots)):
            for x in [w] + [WeylWord(w.letters + (j,)) for j in sorted(par.members)]:
                v, l = weyl._replay(x, rs)
                want = (l, dim - l) if all(v[i - 1] > 0 for i in par.members) else None
                try:
                    datum = flag.schubert_codim(fv, x)
                    got = datum.dim, datum.codim
                except EngineError:
                    got = None
                if got != want:
                    yield sorted(par.members), x.letters, got


# ---- flag invariants ----------------------------------------------------

def closed_form_mismatch(rs, pars):
    """Two derivations of the flag invariants: the closed forms of flag.py
    (from 2 rho_P) against the Weyl word of w_{0,P}, i.e. betas against
    act(w0, rho), the -K weight against rho + act(w0, rho) and dim G/P
    against |R^+| - len(w0). Yields each S_P in `pars` on which they
    differ, sorted. With W3, this also shows that the -K weight vanishes
    on S_P."""
    r = rho(rs)
    for par in pars:
        fv = flag.FlagVariety(rs, par)
        w0 = longest_element(par, rs)
        img = act(w0, r, rs)
        basis = flag.picard_basis(fv)
        betas = flag.beta_values(fv)
        if (set(betas.values) != set(basis)
                or any(betas[a] != img.coeffs[a - 1] for a in basis)
                or reference.anticanonical_weight(fv) != r + img
                or flag.dimension(fv) != len(rs.positive_roots) - len(w0.letters)):
            yield sorted(par.members)


def check_F2_closed_form_vs_weyl_word(rs):
    for bad in closed_form_mismatch(rs, all_parabolics(rs.rank)):
        yield (bad,)


def check_F4_grassmannian_dimension(rs):
    if rs.spec.family != "A":
        return
    n = rs.rank + 1
    for r in range(1, n):
        d = flag.dimension(_maximal(rs, r))
        if d != r * (n - r):
            yield r, n, d


# ---- blowup invariants --------------------------------------------------

def check_B1_cone_duality(rs):
    for fv, c in _blowups(rs):
        nef = blowup.nef_generators(fv, c)
        mori = blowup.mori_generators(fv, c)
        matrix = [[blowup.intersect(d, k) for k in mori] for d in nef]
        if matrix != [[int(i == j) for j in range(len(mori))] for i in range(len(nef))]:
            yield sorted(fv.par.members), c


def check_B3_classifier_matches_cone_test(rs):
    for fv, c in _blowups(rs):
        dc, _ = blowup.anticanonical_class(fv, c)
        expected = (
            blowup.Verdict.FANO
            if reference.is_ample(fv, dc)
            else blowup.Verdict.WEAK_FANO_NOT_FANO
            if reference.is_nef(fv, dc)
            else blowup.Verdict.NOT_WEAK_FANO
        )
        if blowup.classify(fv, c).verdict != expected:
            yield sorted(fv.par.members), c


def check_B5_margin_certificates(rs):
    """-K pairs with each tilde C_alpha to the margin beta_alpha - c + 2,
    and with e to c - 1: its coordinates over the nef generators, which
    anticanonical_class also gives."""
    for fv, c in _blowups(rs):
        dc, basis2 = blowup.anticanonical_class(fv, c)
        mori = blowup.mori_generators(fv, c)
        rep = blowup.classify(fv, c)
        margins = [rep.betas[a] - c + 2 for a in flag.picard_basis(fv)]
        if not ([blowup.intersect(dc, k) for k in mori] == list(basis2) == margins + [c - 1]
                and [rep.margins[a] for a in flag.picard_basis(fv)] == margins):
            yield sorted(fv.par.members), c


# ---- special cross-checks ------------------------------------------------

def check_S1_grassmannian_two_path(rs):
    if rs.spec.family != "A":
        return
    n = rs.rank + 1
    for r in range(1, n):
        fv = _maximal(rs, r)
        for c in range(2, flag.dimension(fv) + 1):
            if special.grassmannian_classify(r, n, c) != blowup.classify(fv, c).verdict:
                yield r, n, c


def check_S3_cominuscule_two_path(rs):
    for node in sorted(special.cominuscule_nodes(rs)):
        fv = _maximal(rs, node)
        for c in range(2, flag.dimension(fv) + 1):
            if special.cominuscule_classify(rs, node, c) != blowup.classify(fv, c).verdict:
                yield node, c


def check_S4_full_flag_two_path(rs):
    fv = flag.FlagVariety(rs, ParabolicSubset(()))
    for c in range(2, flag.dimension(fv) + 1):
        if special.full_flag_classify(rs, c) != blowup.classify(fv, c).verdict:
            yield (c,)


def check_S5_kannan_saha(rs):
    """At each cominuscule node, w_{0,P}(alpha_node^vee) = alpha_0^vee for
    P the maximal parabolic of the node, the coroot identity behind the
    cominuscule law, and beta_node = <rho, alpha_0^vee>."""
    for node in sorted(special.cominuscule_nodes(rs)):
        fv = _maximal(rs, node)
        w0p = longest_element(fv.par, rs)
        if (act(w0p, simple_coroot(rs, node), rs) != coroot_of(highest_root(rs), rs)
                or flag.beta_values(fv)[node] != special.dual_height(rs)):
            yield (node,)


# (label, check, check_rank, test_rank): `check` runs each check over
# all_types(check_rank), and the tests over all_types(test_rank), which is
# never smaller
CHECKS = [
    ("I1 closure order-insensitive", check_I1_closure_order_insensitive, 4, RANK_CAP),
    ("I2 sign coherence", check_I2_sign_coherence, 4, RANK_CAP),
    ("I3 rho/highest-coroot pairing", check_I3_rho_pairing_highest_coroot, 4, RANK_CAP),
    ("I4 root_as_weight injective", check_I4_root_as_weight_injective, 4, RANK_CAP),
    ("I5 simply-laced coroot identity", check_I5_simply_laced_coroot_identity, 4, RANK_CAP),
    ("W3 longest element root permutation", check_W3_longest_element_permutes, 3, 5),
    ("W4 coset rep counts", check_W4_coset_rep_count, 3, 5),
    ("W5 reducedness", check_W5_reducedness, 3, 4),
    ("W6 W^P lookup vs replay", check_W6_lookup_vs_replay, 3, 4),
    ("F2 closed forms vs Weyl word", check_F2_closed_form_vs_weyl_word, 5, 6),
    ("F4 Grassmannian dimension", check_F4_grassmannian_dimension, 6, RANK_CAP),
    ("B1 cone duality", check_B1_cone_duality, 4, 6),
    ("B3 classifier vs cone test", check_B3_classifier_matches_cone_test, 4, 4),
    ("B5 margin certificates", check_B5_margin_certificates, 4, 6),
    ("S1 Grassmannian two-path", check_S1_grassmannian_two_path, 6, RANK_CAP),
    ("S3 cominuscule two-path", check_S3_cominuscule_two_path, 5, 8),
    ("S4 full-flag two-path", check_S4_full_flag_two_path, 3, RANK_CAP),
    ("S5 Kannan-Saha coroot identity", check_S5_kannan_saha, 5, RANK_CAP),
]


def first_counterexample(check, spec):
    """The first counterexample that `check` yields on the root system of
    `spec`, or None: the one place a check is turned into a verdict."""
    return next(iter(check(build_root_system(spec))), None)


def fails(check, specs):
    """Whether `check` fails on some type of `specs`: a counterexample or an
    EngineError."""
    try:
        return any(first_counterexample(check, spec) is not None for spec in specs)
    except EngineError:
        return True


def run_all():
    """(name, status, error) per check. status is PASS (no type up to the
    check's rank gave a counterexample), FAIL (a counterexample or an
    EngineError) or ERROR (any other exception: the check itself crashed),
    and error is "<Type>: <msg>" for an ERROR, else None."""
    results = []
    for name, fn, rank, _ in CHECKS:
        error = None
        try:
            status = "FAIL" if fails(fn, all_types(rank)) else "PASS"
        except Exception as exc:
            status, error = "ERROR", "%s: %s" % (type(exc).__name__, exc)
        results.append((name, status, error))
    return results


def run():
    """Print run_all's report for `check`; the exit code: 3 if a check
    crashed, else 1 if one failed, else 0."""
    results = run_all()
    for name, status, error in results:
        print("%s %s%s" % (status, name, ": " + error if error else ""))
    statuses = [status for _, status, _ in results]
    print("%d/%d checks passed" % (statuses.count("PASS"), len(results)))
    return 3 if "ERROR" in statuses else 1 if "FAIL" in statuses else 0
