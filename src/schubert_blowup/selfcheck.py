"""Desk-scale invariant suites behind the `check` CLI command.

Each check returns True/False; run_all evaluates them in a fixed order so
the report is deterministic, and reports a check that crashes apart from
one that fails. The pytest suite re-runs the same properties at larger
scale.
"""

import itertools
import random

from . import blowup, flag, rootsys, special, weyl
from .conventions import RANK_BOUNDS
from .errors import EngineError
from .rootsys import TypeSpec, build_root_system, coroot_of, height, pairing, rho
from .weyl import ParabolicSubset, WeylWord, act, length, longest_element


def all_types(max_rank):
    out = []
    for fam in "ABCDEFG":
        lo, hi = RANK_BOUNDS[fam]
        for r in range(lo, min(hi, max_rank) + 1):
            out.append(TypeSpec(fam, r))
    return out


def all_parabolics(rank, proper=True):
    nodes = range(1, rank + 1)
    subs = []
    for k in range(rank + 1 if not proper else rank):
        for combo in itertools.combinations(nodes, k):
            subs.append(ParabolicSubset.of(combo))
    return subs


def _systems(max_rank):
    return [build_root_system(t) for t in all_types(max_rank)]


# ---- rootsys invariants -------------------------------------------------

def check_I1_closure_order_insensitive(max_rank=4):
    """The reflection closure that build_root_system uses equals the
    root-string closure, in the natural and in shuffled orders."""
    for t in all_types(max_rank):
        cartan = rootsys.conventions.cartan_entries(t.family, t.rank)
        base = rootsys._positive_roots(cartan)
        order = list(range(t.rank))
        rng = random.Random(0)
        for _ in range(4):
            if rootsys._closure(cartan, order) != base:
                return False
            rng.shuffle(order)
    return True


def check_I2_sign_coherence(max_rank=4):
    for rs in _systems(max_rank):
        for r in rs.positive_roots:
            if not all(c >= 0 for c in r.coeffs):
                return False
    return True


# dual Coxeter numbers, fixed independently of any computation here
def dual_coxeter_number(spec):
    n = spec.rank
    if spec.family == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    return {"A": n + 1, "B": 2 * n - 1, "C": n + 1, "D": 2 * n - 2,
            "F": 9, "G": 4}[spec.family]


def check_I3_rho_pairing_highest_coroot(max_rank=4):
    for rs in _systems(max_rank):
        lhs = pairing(rho(rs), coroot_of(rs.highest_root, rs))
        if lhs != dual_coxeter_number(rs.spec) - 1:
            return False
        # in the simply-laced types this coincides with ht(alpha_0)
        if rs.spec.family in "ADE" and lhs != height(rs.highest_root):
            return False
    return True


def check_I4_root_as_weight_injective(max_rank=4):
    for rs in _systems(max_rank):
        images = {rootsys.root_as_weight(r, rs).coeffs for r in rs.positive_roots}
        if len(images) != len(rs.positive_roots):
            return False
    return True


def check_I5_simply_laced_coroot_identity(max_rank=4):
    for rs in _systems(max_rank):
        if rs.spec.family not in "ADE":
            continue
        for r in rs.positive_roots:
            if coroot_of(r, rs).coeffs != r.coeffs:
                return False
    return True


# ---- weyl invariants ----------------------------------------------------

def check_W1_longest_element_involution(max_rank=3):
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank, proper=False):
            w0 = longest_element(par, rs)
            square = WeylWord(w0.letters + w0.letters)
            for lam in [rho(rs)] + [
                rootsys.Weight(tuple(1 if j == i else 0 for j in range(rs.rank)))
                for i in range(rs.rank)
            ]:
                if act(square, lam, rs) != lam:
                    return False
    return True


def check_W2_longest_element_length(max_rank=3):
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank, proper=False):
            w0 = longest_element(par, rs)
            supported = sum(
                1
                for r in rs.positive_roots
                if all(c == 0 for j, c in enumerate(r.coeffs) if (j + 1) not in par.members)
            )
            if length(w0, rs) != supported or len(w0.letters) != supported:
                return False
    return True


def check_W3_longest_element_permutes(max_rank=3):
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank, proper=False):
            w0 = longest_element(par, rs)
            for r in rs.positive_roots:
                inside = all(
                    c == 0 for j, c in enumerate(r.coeffs) if (j + 1) not in par.members
                )
                img = act(w0, r, rs)
                if inside and img.is_positive():
                    return False
                if not inside and not img.is_positive():
                    return False
    return True


def check_W4_coset_rep_count(max_rank=3):
    for rs in _systems(max_rank):
        group = weyl.brute_force_group(rs)
        for par in all_parabolics(rs.rank):
            reps = weyl.enumerate_coset_reps(par, rs, len(rs.positive_roots))
            # any reduced word of an element of W_P stays inside S_P, so
            # the oracle's shortest words identify the subgroup exactly
            members = set(par.members)
            wp_order = sum(1 for _, w in group if set(w.letters) <= members)
            if len(reps) * wp_order != len(group):
                return False
    return True


def check_W5_reducedness(max_rank=3):
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank, proper=False):
            w0 = longest_element(par, rs)
            if length(w0, rs) != len(w0.letters):
                return False
        for par in all_parabolics(rs.rank):
            for w in weyl.enumerate_coset_reps(par, rs, 4):
                if length(w, rs) != len(w.letters):
                    return False
    return True


# ---- flag invariants ----------------------------------------------------

def check_F1_anticanonical_in_picard(max_rank=4):
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank):
            fv = flag.FlagVariety(rs, par)
            lam = flag.anticanonical_weight(fv)
            if any(lam.coeffs[i - 1] != 0 for i in par.members):
                return False
    return True


def closed_forms_agree(rs, pars=None):
    """Two derivations of the flag invariants on each S_P in `pars` (by
    default every proper one): the closed forms of flag.py (from 2 rho_P)
    against the Weyl word of w_{0,P}, i.e. betas against act(w0, rho), the
    -K weight against rho + act(w0, rho) and dim G/P against
    |R^+| - len(w0)."""
    r = rho(rs)
    for par in all_parabolics(rs.rank) if pars is None else pars:
        fv = flag.FlagVariety(rs, par)
        w0 = longest_element(par, rs)
        img = act(w0, r, rs)
        basis = flag.picard_basis(fv)
        betas = flag.beta_values(fv)
        if set(betas.values) != set(basis):
            return False
        if any(betas[a] != img.coeffs[a - 1] for a in basis):
            return False
        if flag.anticanonical_weight(fv) != r + img:
            return False
        if flag.dimension(fv) != len(rs.positive_roots) - len(w0.letters):
            return False
    return True


def check_F2_closed_form_vs_weyl_word(max_rank=5):
    return all(closed_forms_agree(rs) for rs in _systems(max_rank))


def check_F3_beta_word_independent(max_rank=3):
    # recompute w_{0,P} from a different reduced word: reverse of the
    # greedy word is again reduced for the same element iff it acts equally
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank):
            fv = flag.FlagVariety(rs, par)
            betas = flag.beta_values(fv)
            # any word with the same action on rho gives the same betas
            w0 = longest_element(par, rs)
            alt = None
            for _, w in weyl.brute_force_group(rs):
                if act(w, rho(rs), rs) == act(w0, rho(rs), rs) and w.letters != w0.letters:
                    alt = w
                    break
            if alt is None:
                alt = w0
            img = act(alt, rho(rs), rs)
            if any(img.coeffs[a - 1] != betas[a] for a in flag.picard_basis(fv)):
                return False
    return True


def check_F4_grassmannian_dimension(max_n=7):
    for n in range(2, max_n + 1):
        rs = build_root_system(TypeSpec("A", n - 1))
        for r in range(1, n):
            par = ParabolicSubset.of(set(range(1, n)) - {r})
            fv = flag.FlagVariety(rs, par)
            if flag.dimension(fv) != r * (n - r):
                return False
    return True


# ---- blowup invariants --------------------------------------------------

def check_B1_cone_duality(max_rank=4):
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank):
            fv = flag.FlagVariety(rs, par)
            d = flag.dimension(fv)
            for c in (2, d):
                if c < 2 or c > d:
                    continue
                nef = blowup.nef_generators(fv, c)
                mori = blowup.mori_generators(fv, c)
                for i, dd in enumerate(nef):
                    for j, kk in enumerate(mori):
                        if blowup.intersect(dd, kk) != (1 if i == j else 0):
                            return False
    return True


def check_B2_anticanonical_round_trip(max_rank=4):
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank):
            fv = flag.FlagVariety(rs, par)
            d = flag.dimension(fv)
            for c in range(2, d + 1):
                dc, basis2 = blowup.anticanonical_class(fv, c)
                if blowup.from_nef_basis(dc.basis, basis2) != dc:
                    return False
    return True


def check_B3_classifier_matches_cone_test(max_rank=4):
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank):
            fv = flag.FlagVariety(rs, par)
            d = flag.dimension(fv)
            for c in range(2, d + 1):
                rep = blowup.classify(fv, c)
                dc, _ = blowup.anticanonical_class(fv, c)
                expected = (
                    blowup.Verdict.FANO
                    if blowup.is_ample(dc)
                    else blowup.Verdict.WEAK_FANO_NOT_FANO
                    if blowup.is_nef(dc)
                    else blowup.Verdict.NOT_WEAK_FANO
                )
                if rep.verdict != expected:
                    return False
    return True


def check_B4_scaling_preserves_verdicts(max_rank=3):
    rng = random.Random(1)
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank):
            fv = flag.FlagVariety(rs, par)
            n = len(flag.picard_basis(fv))
            for _ in range(5):
                d = blowup.DivisorClass(
                    flag.picard_basis(fv),
                    tuple(rng.randint(-3, 3) for _ in range(n)),
                    rng.randint(-3, 3),
                )
                m = rng.randint(1, 4)
                if blowup.is_nef(d) != blowup.is_nef(d.scaled(m)):
                    return False
                if blowup.is_ample(d) != blowup.is_ample(d.scaled(m)):
                    return False
    return True


def check_B5_margin_certificates(max_rank=4):
    for rs in _systems(max_rank):
        for par in all_parabolics(rs.rank):
            fv = flag.FlagVariety(rs, par)
            d = flag.dimension(fv)
            for c in (2, d):
                if c < 2 or c > d:
                    continue
                dc, _ = blowup.anticanonical_class(fv, c)
                mori = blowup.mori_generators(fv, c)
                rep = blowup.classify(fv, c)
                basis = flag.picard_basis(fv)
                for j, a in enumerate(basis):
                    if blowup.intersect(dc, mori[j]) != rep.margins[a]:
                        return False
                if blowup.intersect(dc, mori[-1]) != c - 1:
                    return False
    return True


# ---- special cross-checks ------------------------------------------------

def check_S1_grassmannian_two_path(max_n=7):
    for n in range(2, max_n + 1):
        rs = build_root_system(TypeSpec("A", n - 1))
        for r in range(1, n):
            par = ParabolicSubset.of(set(range(1, n)) - {r})
            fv = flag.FlagVariety(rs, par)
            d = flag.dimension(fv)
            for c in range(2, d + 1):
                if special.grassmannian_classify(r, n, c) != blowup.classify(fv, c).verdict:
                    return False
    return True


def check_S2_grassmannian_point_two_path(max_n=7):
    for n in range(2, max_n + 1):
        rs = build_root_system(TypeSpec("A", n - 1))
        for r in range(1, n):
            c = r * (n - r)
            if c < 2:
                continue
            par = ParabolicSubset.of(set(range(1, n)) - {r})
            fv = flag.FlagVariety(rs, par)
            if special.grassmannian_point_classify(r, n) != blowup.classify(fv, c).verdict:
                return False
    return True


def check_S3_cominuscule_two_path(max_rank=5):
    for rs in _systems(max_rank):
        for node in sorted(special.cominuscule_nodes(rs)):
            par = ParabolicSubset.of(set(range(1, rs.rank + 1)) - {node})
            fv = flag.FlagVariety(rs, par)
            d = flag.dimension(fv)
            for c in range(2, d + 1):
                if special.cominuscule_classify(rs, node, c) != blowup.classify(fv, c).verdict:
                    return False
    return True


def check_S4_full_flag_two_path(max_rank=3):
    for rs in _systems(max_rank):
        par = ParabolicSubset.of(())
        fv = flag.FlagVariety(rs, par)
        d = flag.dimension(fv)
        for c in range(2, d + 1):
            if special.full_flag_classify(rs, c) != blowup.classify(fv, c).verdict:
                return False
    return True


def check_S5_kannan_saha(max_rank=5):
    for rs in _systems(max_rank):
        for node in sorted(special.cominuscule_nodes(rs)):
            if not special.kannan_saha_check(rs, node):
                return False
            par = ParabolicSubset.of(set(range(1, rs.rank + 1)) - {node})
            fv = flag.FlagVariety(rs, par)
            if flag.beta_values(fv)[node] != special.dual_height(rs):
                return False
    return True


CHECKS = [
    ("I1 closure order-insensitive", check_I1_closure_order_insensitive),
    ("I2 sign coherence", check_I2_sign_coherence),
    ("I3 rho/highest-coroot pairing", check_I3_rho_pairing_highest_coroot),
    ("I4 root_as_weight injective", check_I4_root_as_weight_injective),
    ("I5 simply-laced coroot identity", check_I5_simply_laced_coroot_identity),
    ("W1 longest element squares to id", check_W1_longest_element_involution),
    ("W2 longest element length", check_W2_longest_element_length),
    ("W3 longest element root permutation", check_W3_longest_element_permutes),
    ("W4 coset rep counts", check_W4_coset_rep_count),
    ("W5 reducedness", check_W5_reducedness),
    ("F1 anticanonical weight in X*(P)", check_F1_anticanonical_in_picard),
    ("F2 closed forms vs Weyl word", check_F2_closed_form_vs_weyl_word),
    ("F3 beta word-independence", check_F3_beta_word_independent),
    ("F4 Grassmannian dimension", check_F4_grassmannian_dimension),
    ("B1 cone duality", check_B1_cone_duality),
    ("B2 anticanonical basis round trip", check_B2_anticanonical_round_trip),
    ("B3 classifier vs cone test", check_B3_classifier_matches_cone_test),
    ("B4 scaling invariance", check_B4_scaling_preserves_verdicts),
    ("B5 margin certificates", check_B5_margin_certificates),
    ("S1 Grassmannian two-path", check_S1_grassmannian_two_path),
    ("S2 Grassmannian point two-path", check_S2_grassmannian_point_two_path),
    ("S3 cominuscule two-path", check_S3_cominuscule_two_path),
    ("S4 full-flag two-path", check_S4_full_flag_two_path),
    ("S5 Kannan-Saha coroot identity", check_S5_kannan_saha),
]


def run_all():
    """(name, status, error) per check. status is PASS, FAIL (False, an
    EngineError or an AssertionError) or ERROR (any other exception: the
    check itself crashed), and error is "<Type>: <msg>" for an ERROR, else
    None."""
    results = []
    for name, fn in CHECKS:
        error = None
        try:
            status = "PASS" if fn() else "FAIL"
        except (EngineError, AssertionError):
            status = "FAIL"
        except Exception as exc:
            status, error = "ERROR", "%s: %s" % (type(exc).__name__, exc)
        results.append((name, status, error))
    return results
