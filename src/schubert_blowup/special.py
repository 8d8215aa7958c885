"""Closed-form classification laws used as cross-checks against the cone
machinery in blowup.py.

No law touches the Weyl group: the Grassmannian and full-flag laws are
pure arithmetic, and the cominuscule law reads only the root system (the
highest root, its coroot and the positive roots). What stays independent
of blowup.classify is each law's closed-form boundary; both map the least
margin through the one ladder blowup.verdict_of, which selfcheck B3 checks.
A law that reads a root system makes an argument that is not a RootSystem
an EngineError at its first read of it, through one reader, _highest_root.
"""

from .blowup import check_codim, verdict_of
from .errors import EngineError, wrong_kind
from .reference import coroot_of


def grassmannian_classify(r, n, c):
    """Fano law for Bl_Z Gr(r, n), Z a smooth Schubert variety of codim c:
    Fano iff c <= n, weak-Fano boundary exactly at c = n + 1.

    A point center has c = r(n-r): the blow-up is Fano exactly for the
    projective spaces and Gr(2,4), and weak-Fano-not-Fano exactly for
    Gr(2,5) and Gr(3,5), which are the same variety."""
    if not (isinstance(r, int) and isinstance(n, int) and 1 <= r <= n - 1):
        raise EngineError("need 1 <= r <= n-1, got r=%r, n=%r" % (r, n))
    check_codim(c, r * (n - r))
    return verdict_of(n + 1 - c)


def _highest_root(rs, call):
    """rs's highest root: the first read of rs in each law that reads it, where
    an argument that is not a RootSystem becomes an EngineError naming call."""
    try:
        return rs.highest_root
    except AttributeError:
        raise EngineError(wrong_kind(call, "a RootSystem", rs)) from None


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
    if node not in cominuscule_nodes(rs):
        raise EngineError("node %r is not cominuscule in %s" % (node, rs.spec))
    check_codim(c, _dim_maximal(rs, node))
    return verdict_of(dual_height(rs) + 2 - c)


def full_flag_classify(rs, c):
    """Fano law for blow-ups of G/B: Fano iff c = 2, boundary at c = 3."""
    _highest_root(rs, "full_flag_classify")
    check_codim(c, len(rs.positive_roots))
    return verdict_of(3 - c)
