"""Divisor and curve classes on the blow-up Bl_Z(G/P) of a flag variety
along a smooth Schubert variety of codimension c >= 2.

Divisor classes live over the basis {Bl*D_alpha} + {E_Z}, curve classes
over {tilde C_alpha} + {e} with tilde C_alpha = Bl*C_alpha - e. The nef
cone is generated by the Bl*D_alpha together with H - E_Z (where H is
the pullback of sum D_alpha), the dual Mori cone by the tilde C_alpha and
e, and the anticanonical class is

    -K = sum (1 + beta_alpha) Bl*D_alpha - (c-1) E_Z
       = sum (beta_alpha + 2 - c) Bl*D_alpha + (c-1)(H - E_Z),

so -K is ample (nef) iff every margin beta_alpha - c + 2 is > 0 (>= 0):
the Fano ladder, read inline by classify; selfcheck B3 compares it with
Kleiman's criterion, S1, S3 and S4 with special._verdict_of. Weak-Fano
assumes that -K is big whenever it is nef, an assumption that nothing
computes yet. The Mori cone is built from c alone, so in Picard rank >= 2
a verdict assumes a centre that is not a union of fibres of some
G/P -> G/Q.

Each reader reads FlagVariety._invariants once, inline in classify and
through flag._invariants_of elsewhere, and checks c with check_codim, the
one check of a codimension; classify calls it only for a c that is not an
int in 2..dim. The engine builds its classes and records past __init__,
whose checks serve every other caller (value's storage rule): classify
its FanoReport, anticanonical_class its -K and _cones the generators, once
per Picard basis for the last FLAGS_PER_SYSTEM bases, shared by every
variety with that basis; nef_generators and mori_generators copy them into
new lists. Generator i of either cone carries the mark i, its index in the
dual pair, in its slot _dual (no field; None on every other class), so
intersect reads the pairing of two marked generators from duality, 1 iff
the marks agree (B1 derives it from unmarked copies): the pair is that of
the basis intersect checks; once the Mori cone depends on S_Q, a mark must
name its pair too. Any other pairing takes the formula, through a curve's
derived slots terms, its nonzero (position, coefficient) pairs, and
e_degree, E_Z . k. Kleiman's criterion, is_nef and is_ample, is reference's.
"""

from enum import Enum
from functools import lru_cache

from .errors import EngineError, wrong_kind
from .flag import BASIS, BETAS, DIM, FLAGS_PER_SYSTEM, BetaVector, FlagVariety, _invariants_of
from .value import Value


class Verdict(str, Enum):
    FANO = "FANO"
    WEAK_FANO_NOT_FANO = "WEAK_FANO_NOT_FANO"
    NOT_WEAK_FANO = "NOT_WEAK_FANO"

    @classmethod
    def _missing_(cls, value):
        raise EngineError("unknown verdict %r" % (value,))


# bound once: reading Verdict.FANO goes through the Enum metaclass, 8x slower
_FANO, _WEAK, _NOT_WEAK = Verdict.FANO, Verdict.WEAK_FANO_NOT_FANO, Verdict.NOT_WEAK_FANO


def _check_coeffs(basis, coeffs, last):
    """The one check of a class's coordinates: a tuple basis and a tuple (a list
    is unhashable) of an int per node, and an int last coefficient (a bool counts)."""
    try:
        # a float or Fraction among ints makes the sum one too
        ok = (type(basis) is type(coeffs) is tuple and len(coeffs) == len(basis)
              and type(sum(coeffs, 0) + last) is int)
    except TypeError:  # a coefficient that does not add with an int
        ok = False
    if not ok:
        raise EngineError("coefficients %r, %r over basis %r: need a tuple basis, a tuple of"
                          " an int per node and an int E or e coefficient" % (coeffs, last, basis))


class DivisorClass(Value):
    __slots__ = ("basis", "pullback_coeffs", "exceptional_coeff", "_dual")
    _fields = __slots__[:3]

    def __init__(self, basis, pullback_coeffs, exceptional_coeff):
        _check_coeffs(basis, pullback_coeffs, exceptional_coeff)
        set_basis, set_pullback, set_exceptional, set_dual = self._set
        set_basis(self, basis)  # picard_basis indices, fixes coordinate order
        set_pullback(self, pullback_coeffs)  # over Bl*D_alpha
        set_exceptional(self, exceptional_coeff)  # of E_Z
        set_dual(self, None)


class CurveClass(Value):
    __slots__ = ("basis", "tilde_coeffs", "e_coeff", "terms", "e_degree", "_dual")
    _fields = __slots__[:3]

    def __init__(self, basis, tilde_coeffs, e_coeff):
        _check_coeffs(basis, tilde_coeffs, e_coeff)
        set_basis, set_tilde, set_e, set_terms, set_e_degree, set_dual = self._set
        set_basis(self, basis)
        set_tilde(self, tilde_coeffs)  # over tilde C_alpha
        set_e(self, e_coeff)
        set_terms(self, tuple((i, a) for i, a in enumerate(tilde_coeffs) if a))
        set_e_degree(self, sum(tilde_coeffs) - e_coeff)  # E_Z . k
        set_dual(self, None)


class FanoReport(Value):
    __slots__ = ("betas", "margins", "verdict")

    def __init__(self, betas, margins, verdict):
        if (type(betas), type(margins), type(verdict)) != (BetaVector, dict, Verdict):
            raise EngineError(wrong_kind("FanoReport", "a BetaVector, a dict and a Verdict",
                                         betas, margins, verdict))
        set_betas, set_margins, set_verdict = self._set
        set_betas(self, betas)
        set_margins(self, margins)  # alpha -> beta_alpha - c + 2
        set_verdict(self, verdict)


_new = object.__new__
_set_betas, _set_margins, _set_verdict = FanoReport._set
_set_d_basis, _set_pullback, _set_exceptional, _set_d_dual = DivisorClass._set
_set_k_basis, _set_tilde, _set_e, _set_terms, _set_e_degree, _set_k_dual = CurveClass._set


def _divisor(basis, pullback, exceptional, dual=None):
    d = _new(DivisorClass)
    _set_d_basis(d, basis)
    _set_pullback(d, pullback)
    _set_exceptional(d, exceptional)
    _set_d_dual(d, dual)
    return d


def _curve(basis, tilde, e, terms, e_degree, dual):
    k = _new(CurveClass)
    _set_k_basis(k, basis)
    _set_tilde(k, tilde)
    _set_e(k, e)
    _set_terms(k, terms)
    _set_e_degree(k, e_degree)
    _set_k_dual(k, dual)
    return k


def check_codim(c, d):
    """A center of codimension c in a G/P of dimension d needs an int c in 2..d;
    blowup and the closed-form laws of special share this one check."""
    if not (isinstance(c, int) and 2 <= c <= d):
        raise EngineError(
            "codimension %r outside 2..%d" % (c, d) if d >= 2
            else "G/P has dimension %d, so it has no center of codimension >= 2" % d)


@lru_cache(maxsize=FLAGS_PER_SYSTEM)
def _cones(basis):
    """The nef and Mori generator tuples of a Picard basis, shared by every
    variety with that basis; unit k, a slice of a zero tuple around a 1, is
    shared by Bl*D_k and tilde C_k."""
    n = len(basis)
    w = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
    nef, mori = [], []
    for k in range(n):
        unit = w[n - 1 - k:2 * n - 1 - k]
        nef.append(_divisor(basis, unit, 0, k))
        mori.append(_curve(basis, unit, 0, ((k, 1),), 1, k))
    nef.append(_divisor(basis, (1,) * n, -1, n))
    mori.append(_curve(basis, (0,) * n, 1, (), -1, n))
    return tuple(nef), tuple(mori)


def _read(fv, c, call):
    """fv's invariants, read once, with c checked against its dimension."""
    inv = _invariants_of(fv, call)
    check_codim(c, inv[DIM])
    return inv


def nef_generators(fv, c):
    """{Bl*D_alpha} plus H - E_Z, H = sum_alpha Bl*D_alpha: a new list of shared classes."""
    return list(_cones(_read(fv, c, "nef_generators")[BASIS])[0])


def mori_generators(fv, c):
    """{tilde C_alpha} plus e: a new list of fv's shared classes."""
    return list(_cones(_read(fv, c, "mori_generators")[BASIS])[1])


def intersect(d, k):
    """Bilinear pairing from Bl*D_alpha . Bl*C_beta = delta, Bl*D_alpha . e = 0,
    E_Z . Bl*C_beta = 0, E_Z . e = -1, expanding tilde C_alpha = Bl*C_alpha - e."""
    if type(d) is not DivisorClass or type(k) is not CurveClass:
        raise EngineError(wrong_kind("intersect", "a DivisorClass and a CurveClass", d, k))
    if d.basis is not k.basis and d.basis != k.basis:
        raise EngineError("divisor basis %r vs curve basis %r" % (d.basis, k.basis))
    i, j = d._dual, k._dual
    if i is not None and j is not None:  # two generators of one cone pair: duality
        return 1 if i == j else 0
    x = d.pullback_coeffs
    dot = d.exceptional_coeff * k.e_degree
    for i, a in k.terms:
        dot += x[i] * a
    return dot


def anticanonical_class(fv, c):
    """-K of the blow-up in both bases (selfcheck B5 checks them against its pairings)."""
    inv = _read(fv, c, "anticanonical_class")
    c = int.__index__(c)  # an int subclass reads as its int, whatever its arithmetic
    pullback, basis2 = [], []
    for b in inv[BETAS].values.values():  # in Picard-basis order
        pullback.append(1 + b)
        basis2.append(b + 2 - c)
    basis2.append(c - 1)
    return _divisor(inv[BASIS], tuple(pullback), 1 - c), tuple(basis2)


def classify(fv, c):
    """Fano / weak-Fano verdict for Bl_Z(G/P), Z a smooth Schubert variety of
    codimension c (its existence and smoothness are the caller's assertion)."""
    if type(fv) is not FlagVariety:
        raise EngineError(wrong_kind("classify", "a FlagVariety", fv))
    dim, betas, _, least = fv._invariants  # DIM..LEAST: unpacked, the hot path
    if not (type(c) is int and 2 <= c <= dim):  # any c this lets by, check_codim passes
        check_codim(c, dim)
        c = int.__index__(c)  # as in anticanonical_class
    # a new dict keyed by the Picard basis, ascending; a loop, not a comprehension
    margins = betas.values.copy()
    shift = c - 2
    for a in margins:
        margins[a] -= shift
    least -= shift
    rep = _new(FanoReport)
    _set_betas(rep, betas)
    _set_margins(rep, margins)
    # the Fano ladder: a sign-indexed tuple reads slower
    _set_verdict(rep, _FANO if least > 0 else _WEAK if least == 0 else _NOT_WEAK)
    return rep
