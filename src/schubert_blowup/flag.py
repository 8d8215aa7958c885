"""The generalized flag variety G/P: dimension, Picard basis, the
beta invariants beta_alpha = <w_{0,P}(rho), alpha^vee> and Schubert
codimension.

No Weyl word and no root is needed for the invariants: w_{0,P}(rho) =
rho - 2 rho_P, where 2 rho_P is the sum of the positive roots of the Levi
factor, the roots supported on S_P (Humphreys, Reflection Groups and
Coxeter Groups, 1.6-1.8). The Levi is the product of its simple factors,
conventions.simple_factors, and 2 rho_P and |R_P^+| are the sums of their
closed forms, conventions.two_rho and conventions.positive_root_count
(Bourbaki, Plates I-IX); w_{0,P}(rho) subtracts only the S_P columns of
RootSystem.columns. Each FlagVariety caches the betas, with its Picard
basis (one tuple per basis in the process, _BASES, which every class built
on it shares), its least beta (where classify reads the verdict) and
dim G/P, |R^+| by the same closed form less |R_P^+|. A FlagVariety builds
them with itself, since every reader of a variety reads them, so its first
classify costs what the others do; FlagVariety asks rootsys.kept_varieties
for the one FlagVariety per S_P of a kept root system, up to
FLAGS_PER_SYSTEM, so a repeated query finds them built. Nothing is
re-checked: selfcheck F2 (the closed forms against the Weyl word of
w_{0,P} and the closure of R^+) holds them. FlagVariety._invariants keeps
them as one plain tuple, laid out as DIM, BETAS, BASIS and LEAST name, the
one entry of its "__dict__" slot; readers index it through _invariants_of,
classify unpacks it. reference.anticanonical_weight builds the -K weight,
which no query reads, anew from _closed_form. The build writes its
BetaVector, and schubert_codim its SchubertDatum, past __init__ (value's
storage rule); the build calls two_rho and positive_root_count through
this module's globals, which the negative controls of F2 and F4 patch.
"""

from types import MappingProxyType

from .conventions import positive_root_count, simple_factors, two_rho
from .errors import EngineError, wrong_kind
from .rootsys import RootSystem, kept_varieties
from .value import Value
from .weyl import ParabolicSubset, _coset_length, check_parabolic

# how many flag varieties a kept root system holds (rootsys.build_root_system),
# and how many bases' cone generators blowup keeps: a working set of a few
# dozen (type, S_P) queries fits
FLAGS_PER_SYSTEM = 64

# the layout of FlagVariety._invariants: dim G/P, the BetaVector, the Picard
# basis and the least beta. A plain tuple: blowup.classify unpacks it on
# every call, and over a sweep pass a namedtuple's unpack costs it about
# 4.5% more time
DIM, BETAS, BASIS, LEAST = range(4)
_BASES = {}  # Picard basis -> its one tuple: at most 2^16 - 1 tuples of ints


class FlagVariety(Value):
    # par: ParabolicSubset S_P; the "__dict__" slot holds only _invariants
    __slots__ = ("rs", "par", "__dict__")

    def __new__(cls, rs, par):
        """On a kept root system (rootsys.build_root_system), the one instance
        per S_P, with what it has cached, up to FLAGS_PER_SYSTEM; else a new one."""
        if type(rs) is not RootSystem or type(par) is not ParabolicSubset:
            raise EngineError(wrong_kind("FlagVariety", "a RootSystem and a ParabolicSubset",
                                         rs, par))
        rank = len(rs.columns)
        check_parabolic(par, rank)
        if len(par.members) == rank:
            raise EngineError("S_P = S gives the degenerate variety G/G")
        kept = kept_varieties(rs)
        if kept is not None:
            fv = kept.get(par.members)
            if fv is not None:
                return fv
        fv = _new(cls)
        set_rs, set_par = cls._set
        set_rs(fv, rs)
        set_par(fv, par)
        fv.__dict__["_invariants"] = fv._build_invariants()
        if kept is not None and len(kept) < FLAGS_PER_SYSTEM:
            kept[par.members] = fv
        return fv

    def _closed_form(self):
        """(w_{0,P}(rho) as a list, |R_P^+|), from the Levi's simple factors."""
        cols = self.rs.columns
        # w_{0,P}(rho) = rho - 2 rho_P: each S_P column times its 2 rho_P coefficient
        img = [1] * len(cols)
        levi = 0  # |R_P^+|
        for fam, m, nodes in simple_factors(self.rs.spec.family, len(cols), self.par.members):
            levi += positive_root_count(fam, m)
            for i, k in zip(nodes, two_rho(fam, m)):
                for j, a in cols[i - 1]:
                    img[j] -= k * a
        return img, levi

    def _build_invariants(self):
        """_invariants: (dim G/P, BetaVector, Picard basis, least beta), in
        the order of DIM..LEAST."""
        img, levi = self._closed_form()
        basis = self.par.complement(len(img))
        basis = _BASES.setdefault(basis, basis)
        values = {}  # a loop: a comprehension makes and calls a function
        for a in basis:
            values[a] = img[a - 1]
        betas = _new(BetaVector)
        _set_values(betas, MappingProxyType(values))
        dim = positive_root_count(self.rs.spec.family, len(img)) - levi
        return dim, betas, basis, min(values.values())


class BetaVector(Value):
    """beta_alpha for each alpha in the Picard basis S \\ S_P (read-only:
    every report on one FlagVariety shares it)."""

    __slots__ = ("values",)  # MappingProxyType, keys ascending

    def __init__(self, values):
        if type(values) is not MappingProxyType:
            raise EngineError(wrong_kind("BetaVector", "a MappingProxyType", values))
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
        if not (isinstance(dim, int) and isinstance(codim, int)):
            raise EngineError(wrong_kind("SchubertDatum", "two ints", dim, codim))
        set_dim, set_codim = self._set
        set_dim(self, dim)
        set_codim(self, codim)


_new = object.__new__
(_set_values,), (_set_dim, _set_codim) = BetaVector._set, SchubertDatum._set


def _invariants_of(fv, call):
    """fv._invariants; call names the reader in the wrong-kind message."""
    if type(fv) is not FlagVariety:
        raise EngineError(wrong_kind(call, "a FlagVariety", fv))
    return fv._invariants


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


def schubert_codim(fv, word):
    """dim X_{wP} = l(w) and its codimension, for w in W^P (weyl._coset_length)."""
    if type(fv) is not FlagVariety:  # not _invariants_of: a call more per census op
        raise EngineError(wrong_kind("schubert_codim", "a FlagVariety", fv))
    d = _coset_length(word, fv.par.members, fv.rs)
    datum = _new(SchubertDatum)
    _set_dim(datum, d)
    _set_codim(datum, fv._invariants[DIM] - d)
    return datum
