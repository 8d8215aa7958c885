"""Closed-form classification laws used as independent cross-checks
against the cone machinery in blowup.py.

No law touches the Weyl group: the Grassmannian and full-flag laws are
pure arithmetic, and the cominuscule law reads only the root system (the
highest root, its coroot and the positive roots). Agreement with
blowup.classify is therefore a genuine two-path verification.
"""

from .blowup import Verdict, check_codim
from .errors import EngineError
from .rootsys import coroot_of


def _verdict(c, boundary):
    """The ladder every law here shares: Fano below the weak-Fano boundary,
    weak-Fano but not Fano at it, not weak-Fano above it."""
    if c < boundary:
        return Verdict.FANO
    if c == boundary:
        return Verdict.WEAK_FANO_NOT_FANO
    return Verdict.NOT_WEAK_FANO


def grassmannian_classify(r, n, c):
    """Fano law for Bl_Z Gr(r, n), Z a smooth Schubert variety of codim c:
    Fano iff c <= n, weak-Fano boundary exactly at c = n + 1.

    A point center has c = r(n-r): the blow-up is Fano exactly for the
    projective spaces and Gr(2,4), and weak-Fano-not-Fano exactly for
    Gr(2,5) and Gr(3,5), which are the same variety."""
    if not (1 <= r <= n - 1):
        raise EngineError("need 1 <= r <= n-1, got r=%d, n=%d" % (r, n))
    check_codim(c, r * (n - r))
    return _verdict(c, n + 1)


def cominuscule_nodes(rs):
    """Simple roots occurring with coefficient 1 in the highest root."""
    return frozenset(
        i + 1 for i, k in enumerate(rs.highest_root.coeffs) if k == 1
    )


def _dim_maximal(rs, node):
    # dim G/P for the maximal parabolic at `node`
    return sum(1 for r in rs.positive_roots if r.coeffs[node - 1] != 0)


def dual_height(rs):
    """Coefficient sum of the highest coroot, i.e. <rho, alpha_0^vee>
    (dual Coxeter number minus one). Equals ht(alpha_0) exactly in the
    simply-laced types."""
    return sum(coroot_of(rs.highest_root, rs).coeffs)


def cominuscule_classify(rs, node, c):
    """Fano law on a cominuscule Grassmannian G/P_node: the boundary sits
    at c = <rho, alpha_0^vee> + 2.

    The coroot identity w_{0,P}(alpha_node^vee) = alpha_0^vee (see
    selfcheck S5) gives beta_node = <rho, alpha_0^vee>; this is the
    coefficient sum of the highest coroot, which collapses to
    ht(alpha_0) only when all roots have the same length."""
    if node not in cominuscule_nodes(rs):
        raise EngineError("node %d is not cominuscule in %s" % (node, rs.spec))
    check_codim(c, _dim_maximal(rs, node))
    return _verdict(c, dual_height(rs) + 2)


def full_flag_classify(rs, c):
    """Fano law for blow-ups of G/B: Fano iff c = 2, boundary at c = 3."""
    check_codim(c, len(rs.positive_roots))
    return _verdict(c, 3)
