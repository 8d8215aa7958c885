"""The generalized flag variety G/P: dimension, Picard basis, the
beta invariants beta_alpha = <w_{0,P}(rho), alpha^vee>, anticanonical
weight rho + w_{0,P}(rho), and Schubert codimension.

No Weyl word is needed for the invariants: w_{0,P}(rho) = rho - 2 rho_P,
where 2 rho_P is the sum of the positive roots supported on S_P
(Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.8). One pass over
the positive roots gives 2 rho_P and |R_P^+|, and each FlagVariety caches
what follows from them.
"""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .errors import EngineError, NotAPCharacter, NotMinimalRep
from .rootsys import Weight, rho
from .weyl import is_minimal_coset_rep, length


def _supported_on(root, members):
    return all(c == 0 for j, c in enumerate(root.coeffs) if (j + 1) not in members)


@dataclass(frozen=True)
class FlagVariety:
    rs: object
    par: object  # ParabolicSubset S_P

    def __post_init__(self):
        if not set(self.par.members) <= set(range(1, self.rs.rank + 1)):
            raise EngineError("parabolic indices %r outside 1..%d"
                              % (sorted(self.par.members), self.rs.rank))
        if len(self.par.members) == self.rs.rank:
            raise EngineError("S_P = S gives the degenerate variety G/G")

    @cached_property
    def _invariants(self):
        """(dim G/P, BetaVector, -K weight), all from one pass over R^+."""
        rs, members = self.rs, self.par.members
        two_rho_p = [0] * rs.rank
        levi_roots = 0
        for r in rs.positive_roots:
            if _supported_on(r, members):
                levi_roots += 1
                for j, k in enumerate(r.coeffs):
                    two_rho_p[j] += k
        # w_{0,P}(rho) = rho - 2 rho_P, in weight coordinates
        C = rs.cartan.entries
        img = tuple(
            1 - sum(cij * k for cij, k in zip(row, two_rho_p)) for row in C
        )
        betas = BetaVector(
            MappingProxyType({a: img[a - 1] for a in picard_basis(self)})
        )
        dim = len(rs.positive_roots) - levi_roots
        return dim, betas, rho(rs) + Weight(img)


@dataclass(frozen=True)
class BetaVector:
    """beta_alpha for each alpha in the Picard basis S \\ S_P (read-only:
    every report on one FlagVariety shares it)."""

    values: MappingProxyType

    def __getitem__(self, alpha):
        if alpha not in self.values:
            raise EngineError("beta is defined only on S \\ S_P, not node %d" % alpha)
        return self.values[alpha]


@dataclass(frozen=True)
class SchubertDatum:
    word: object
    dim: int
    codim: int
    smooth_asserted: bool = False


def dimension(fv):
    """dim G/P = |R^+| - |R_P^+|."""
    return fv._invariants[0]


def picard_basis(fv):
    """Ascending indices of S \\ S_P; these label D_alpha and C_alpha."""
    return fv.par.complement(fv.rs.rank)


def weight_to_divisor(fv, lam):
    """Coefficients over {D_alpha} of the line bundle of lam in X^*(P)."""
    for i in sorted(fv.par.members):
        if lam.coeffs[i - 1] != 0:
            raise NotAPCharacter(
                "weight has nonzero pairing %d with alpha_%d^vee in S_P"
                % (lam.coeffs[i - 1], i)
            )
    return tuple(lam.coeffs[a - 1] for a in picard_basis(fv))


def beta_values(fv):
    """beta_alpha = <rho - 2 rho_P, alpha^vee> for alpha in S \\ S_P."""
    return fv._invariants[1]


def anticanonical_weight(fv):
    """rho + w_{0,P}(rho) = 2 rho - 2 rho_P; lies in X^*(P)."""
    return fv._invariants[2]


def schubert_codim(fv, word):
    if not is_minimal_coset_rep(word, fv.par, fv.rs):
        raise NotMinimalRep("word %r is not a minimal coset representative"
                            % (word.letters,))
    d = length(word, fv.rs)
    return SchubertDatum(word=word, dim=d, codim=dimension(fv) - d)
