"""The generalized flag variety G/P: dimension, Picard basis, the
beta invariants beta_alpha = <w_{0,P}(rho), alpha^vee>, anticanonical
weight rho + w_{0,P}(rho), and Schubert codimension.

No Weyl word and no root is needed for the invariants: w_{0,P}(rho) =
rho - 2 rho_P, where 2 rho_P is the sum of the positive roots of the Levi
factor, the roots supported on S_P (Humphreys, Reflection Groups and
Coxeter Groups, 1.6-1.8). The Levi is the product of its simple factors,
conventions.simple_factors, and 2 rho_P and |R_P^+| are the sums of their
closed forms, conventions.two_rho and conventions.positive_root_count
(Bourbaki, Plates I-IX); w_{0,P}(rho) subtracts only the S_P columns of
RootSystem.columns. Each FlagVariety caches the betas, with its Picard
basis (one tuple, shared by every class built on it), its least beta
(where classify reads the verdict) and dim G/P, |R^+| by the same closed
form less |R_P^+|; FlagVariety asks rootsys.kept_varieties for the one
FlagVariety per S_P of a kept root system, up to FLAGS_PER_SYSTEM, so a
repeated query finds them cached. Nothing is re-checked on the way:
selfcheck F2 (the closed forms against the Weyl word of w_{0,P} and the
closure of R^+) holds them. FlagVariety._invariants keeps them as one
plain tuple, whose layout DIM, BETAS, BASIS and LEAST name, in its
"__dict__" slot. The readers dimension, picard_basis, beta_values,
least_beta and anticanonical_weight, and blowup once per query, index it
through _invariants_of, the one read that makes an argument that is not a
FlagVariety an EngineError; classify unpacks it inline, and
schubert_codim reads DIM in its own try and takes a word's W^P test and
length from weyl._coset_length. No query reads the -K weight, so
anticanonical_weight builds it anew from the closed form on each call.
"""

from functools import cached_property
from types import MappingProxyType

from .conventions import positive_root_count, simple_factors, two_rho
from .errors import EngineError, wrong_kind
from .rootsys import Weight, kept_varieties
from .value import Value
from .weyl import _coset_length, check_parabolic

# how many flag varieties a kept root system holds (rootsys.build_root_system):
# a working set of a few dozen (type, S_P) queries fits
FLAGS_PER_SYSTEM = 64

# the layout of FlagVariety._invariants: dim G/P, the BetaVector, the Picard
# basis and the least beta. A plain tuple: blowup.classify unpacks it on
# every call, and over a sweep pass a namedtuple's unpack costs it about
# 4.5% more time
DIM, BETAS, BASIS, LEAST = range(4)


class FlagVariety(Value):
    # par: ParabolicSubset S_P; the cached invariants (and blowup's cone
    # generators) live in the "__dict__" slot
    __slots__ = ("rs", "par", "__dict__")

    def __new__(cls, rs, par):
        """On a kept root system (rootsys.build_root_system), the one instance
        per S_P, with what it has cached, up to FLAGS_PER_SYSTEM; else a new one."""
        try:
            check_parabolic(par, rs.spec.rank)
        except AttributeError:
            raise EngineError(wrong_kind("FlagVariety", "a RootSystem and a ParabolicSubset",
                                         rs, par)) from None
        if len(par.members) == rs.rank:
            raise EngineError("S_P = S gives the degenerate variety G/G")
        kept = kept_varieties(rs)
        if kept is not None:
            fv = kept.get(par.members)
            if fv is not None:
                return fv
        fv = object.__new__(cls)
        set_rs, set_par = cls._set
        set_rs(fv, rs)
        set_par(fv, par)
        if kept is not None and len(kept) < FLAGS_PER_SYSTEM:
            kept[par.members] = fv
        return fv

    def _closed_form(self):
        """(w_{0,P}(rho) as a list, |R_P^+|), from the Levi's simple factors."""
        rs, cols = self.rs, self.rs.columns
        # w_{0,P}(rho) = rho - 2 rho_P: each S_P column times its 2 rho_P coefficient
        img = [1] * rs.rank
        levi = 0  # |R_P^+|
        for fam, m, nodes in simple_factors(rs.spec.family, rs.rank, self.par.members):
            levi += positive_root_count(fam, m)
            for i, k in zip(nodes, two_rho(fam, m)):
                for j, a in cols[i - 1]:
                    img[j] -= k * a
        return img, levi

    @cached_property
    def _invariants(self):
        """(dim G/P, BetaVector, Picard basis, least beta), in the order of
        DIM..LEAST."""
        rs = self.rs
        img, levi = self._closed_form()
        basis = self.par.complement(rs.rank)
        values = {a: img[a - 1] for a in basis}
        dim = positive_root_count(rs.spec.family, rs.rank) - levi
        return dim, BetaVector(MappingProxyType(values)), basis, min(values.values())


class BetaVector(Value):
    """beta_alpha for each alpha in the Picard basis S \\ S_P (read-only:
    every report on one FlagVariety shares it)."""

    __slots__ = ("values",)  # MappingProxyType, keys ascending

    def __init__(self, values):
        (set_values,) = self._set
        set_values(self, values)

    def __getitem__(self, alpha):
        try:
            return self.values[alpha]
        except (KeyError, TypeError):  # another node, or an unhashable one
            raise EngineError("beta is defined only on S \\ S_P, not node %r" % (alpha,)) from None


class SchubertDatum(Value):
    __slots__ = ("dim", "codim")

    def __init__(self, dim, codim):
        set_dim, set_codim = self._set
        set_dim(self, dim)
        set_codim(self, codim)


def _invariants_of(fv, call):
    """fv._invariants: the one read of a FlagVariety argument, where anything
    else becomes an EngineError naming call."""
    try:
        return fv._invariants
    except AttributeError:  # a try costs nothing until it raises
        raise EngineError(wrong_kind(call, "a FlagVariety", fv)) from None


def dimension(fv):
    """dim G/P = |R^+| - |R_P^+|, with |R^+| in closed form."""
    return _invariants_of(fv, "dimension")[DIM]


def picard_basis(fv):
    """Ascending indices of S \\ S_P; these label D_alpha and C_alpha. One
    tuple per FlagVariety, so the classes built on it share their basis."""
    return _invariants_of(fv, "picard_basis")[BASIS]


def beta_values(fv):
    """beta_alpha = <rho - 2 rho_P, alpha^vee> for alpha in S \\ S_P."""
    return _invariants_of(fv, "beta_values")[BETAS]


def least_beta(fv):
    """min beta_alpha over S \\ S_P, where the least margin of -K sits."""
    return _invariants_of(fv, "least_beta")[LEAST]


def anticanonical_weight(fv):
    """rho + w_{0,P}(rho) = 2 rho - 2 rho_P; lies in X^*(P)."""
    _invariants_of(fv, "anticanonical_weight")  # the one check of the argument
    return Weight(tuple(1 + x for x in fv._closed_form()[0]))


def schubert_codim(fv, word):
    """dim X_{wP} = l(w) and its codimension, for w in W^P (weyl._coset_length)."""
    try:
        rs, members, dim = fv.rs, fv.par.members, fv._invariants[DIM]
    except AttributeError:
        raise EngineError(wrong_kind("schubert_codim", "a FlagVariety", fv)) from None
    d = _coset_length(word, members, rs)
    return SchubertDatum(d, dim - d)
