"""Closed-form classification laws used as cross-checks against the cone
machinery in blowup.py.

No law touches the Weyl group: the Grassmannian and full-flag laws are
pure arithmetic, and the cominuscule law reads only the root system (the
highest root, its coroot and the positive roots). What stays independent
of blowup.classify is each law's closed-form boundary. Each maps its least
margin through _verdict_of, this module's own copy of the Fano ladder,
which classify reads inline: selfcheck S1, S3 and S4 compare the two
across the domain, and B3 compares classify with Kleiman's criterion.
"""

from .blowup import Verdict, check_codim
from .errors import EngineError, wrong_kind
from .reference import coroot_of, highest_root
from .rootsys import RootSystem


def _verdict_of(least_margin):
    """The Fano ladder on a law's least margin: Fano above 0, weak-Fano but
    not Fano at 0, not weak-Fano below."""
    if least_margin > 0:
        return Verdict.FANO
    return Verdict.WEAK_FANO_NOT_FANO if least_margin == 0 else Verdict.NOT_WEAK_FANO


def grassmannian_classify(r, n, c):
    """Fano law for Bl_Z Gr(r, n), Z a smooth Schubert variety of codim c:
    Fano iff c <= n, weak-Fano boundary exactly at c = n + 1.

    A point center has c = r(n-r): the blow-up is Fano exactly for the
    projective spaces and Gr(2,4), and weak-Fano-not-Fano exactly for
    Gr(2,5) and Gr(3,5), which are the same variety."""
    if not (isinstance(r, int) and isinstance(n, int) and 1 <= r <= n - 1):
        raise EngineError("need 1 <= r <= n-1, got r=%r, n=%r" % (r, n))
    check_codim(c, r * (n - r))
    return _verdict_of(n + 1 - c)


def _highest_root(rs, call):
    """The highest root of rs; call names the law in the wrong-kind message."""
    if type(rs) is not RootSystem:
        raise EngineError(wrong_kind(call, "a RootSystem", rs))
    return highest_root(rs)


def cominuscule_nodes(rs):
    """Simple roots occurring with coefficient 1 in the highest root."""
    return frozenset(
        i + 1 for i, k in enumerate(_highest_root(rs, "cominuscule_nodes").coeffs) if k == 1
    )


def _dim_maximal(rs, node):
    # dim G/P for the maximal parabolic at `node`
    return sum(1 for r in rs.positive_roots if r.coeffs[node - 1] != 0)


def dual_height(rs):
    """Coefficient sum of the highest coroot, i.e. <rho, alpha_0^vee>
    (dual Coxeter number minus one). Equals ht(alpha_0) exactly in the
    simply-laced types."""
    return sum(coroot_of(_highest_root(rs, "dual_height"), rs).coeffs)


def cominuscule_classify(rs, node, c):
    """Fano law on a cominuscule Grassmannian G/P_node: the boundary sits
    at c = <rho, alpha_0^vee> + 2.

    The coroot identity w_{0,P}(alpha_node^vee) = alpha_0^vee (see
    selfcheck S5) gives beta_node = <rho, alpha_0^vee>; this is the
    coefficient sum of the highest coroot, which collapses to
    ht(alpha_0) only when all roots have the same length."""
    _highest_root(rs, "cominuscule_classify")
    if not isinstance(node, int) or node not in cominuscule_nodes(rs):
        raise EngineError("node %r is not cominuscule in %s" % (node, rs.spec))
    check_codim(c, _dim_maximal(rs, node))
    return _verdict_of(dual_height(rs) + 2 - c)


def full_flag_classify(rs, c):
    """Fano law for blow-ups of G/B: Fano iff c = 2, boundary at c = 3."""
    _highest_root(rs, "full_flag_classify")
    check_codim(c, len(rs.positive_roots))
    return _verdict_of(3 - c)
