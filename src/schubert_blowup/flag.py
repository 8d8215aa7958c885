"""The generalized flag variety G/P: dimension, Picard basis, the
beta invariants beta_alpha = <w_{0,P}(rho), alpha^vee>, anticanonical
weight rho + w_{0,P}(rho), and Schubert codimension.

No Weyl word is needed for the invariants: w_{0,P}(rho) = rho - 2 rho_P,
where 2 rho_P is the sum of the positive roots of the Levi factor, the
roots supported on S_P (Humphreys, Reflection Groups and Coxeter Groups,
1.6-1.8). The reflection closure over the S_P columns of RootSystem.columns
gives those roots, w_{0,P}(rho) subtracts only those columns, and each
FlagVariety caches what follows. No closure of the whole R^+ is needed
either: dim G/P is the closed form conventions.positive_root_count less
|R_P^+|. Nothing is re-checked on the way: selfcheck F1 (the -K weight
vanishes on S_P, i.e. C_P 2 rho_P = (2, ..., 2)) and F2 (the closed forms
against the Weyl word of w_{0,P} and the closure of R^+) hold them.
"""

from functools import cached_property
from types import MappingProxyType

from .conventions import positive_root_count
from .errors import EngineError
from .rootsys import Weight, _positive_roots
from .value import Value, setfield
from .weyl import _replay, check_parabolic


class FlagVariety(Value):
    # no __slots__: the cached invariants live in the instance __dict__,
    # which is also the fastest place to read them from
    _fields = ("rs", "par")  # par: ParabolicSubset S_P

    def __init__(self, rs, par):
        check_parabolic(par, rs.rank)
        if len(par.members) == rs.rank:
            raise EngineError("S_P = S gives the degenerate variety G/G")
        setfield(self, "rs", rs)
        setfield(self, "par", par)

    @cached_property
    def _invariants(self):
        """(dim G/P, BetaVector, -K weight), from the Levi's positive roots."""
        rs = self.rs
        levi = _positive_roots(rs, [i - 1 for i in self.par.members])
        # w_{0,P}(rho) = rho - 2 rho_P: each S_P column times its 2 rho_P coefficient
        img = [1] * rs.rank
        for i, k in enumerate(map(sum, zip(*levi))):
            if k:
                for j, a in rs.columns[i]:
                    img[j] -= k * a
        betas = BetaVector(
            MappingProxyType({a: img[a - 1] for a in picard_basis(self)})
        )
        dim = positive_root_count(rs.spec.family, rs.rank) - len(levi)
        return dim, betas, Weight(tuple(1 + x for x in img))  # rho + w_{0,P}(rho)


class BetaVector(Value):
    """beta_alpha for each alpha in the Picard basis S \\ S_P (read-only:
    every report on one FlagVariety shares it)."""

    __slots__ = ("values",)  # MappingProxyType, keys ascending

    def __init__(self, values):
        setfield(self, "values", values)

    def __getitem__(self, alpha):
        if alpha not in self.values:
            raise EngineError("beta is defined only on S \\ S_P, not node %r" % (alpha,))
        return self.values[alpha]


class SchubertDatum(Value):
    __slots__ = ("dim", "codim")

    def __init__(self, dim, codim):
        setfield(self, "dim", dim)
        setfield(self, "codim", codim)


def dimension(fv):
    """dim G/P = |R^+| - |R_P^+|, with |R^+| in closed form."""
    return fv._invariants[0]


def picard_basis(fv):
    """Ascending indices of S \\ S_P; these label D_alpha and C_alpha."""
    return fv.par.complement(fv.rs.rank)


def beta_values(fv):
    """beta_alpha = <rho - 2 rho_P, alpha^vee> for alpha in S \\ S_P."""
    return fv._invariants[1]


def anticanonical_weight(fv):
    """rho + w_{0,P}(rho) = 2 rho - 2 rho_P; lies in X^*(P)."""
    return fv._invariants[2]


def schubert_codim(fv, word):
    """dim X_{wP} = l(w) and its codimension; one replay tests w in W^P."""
    v, d = _replay(word, fv.rs)
    if not all(v[i - 1] > 0 for i in fv.par.members):
        raise EngineError("word %r is not a minimal coset representative"
                          % (word.letters,))
    return SchubertDatum(d, dimension(fv) - d)
