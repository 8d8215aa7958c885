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

anticanonical_class and the cone readers read FlagVariety._invariants
once, through flag._invariants_of, and index it by flag's names for its
layout; classify, the hot path, unpacks it inline. Each checks c
with check_codim, the one check and message of a codimension; classify
calls it only when c is not an int in 2..dim: a bool or an int subclass
goes to it too. Its margins are a copy of the betas, a new dict in
Picard-basis order, each value shifted in place by c - 2: no
comprehension, which on Python 3.11 makes and calls a function on every
call. It writes its FanoReport past __init__ (value's storage rule).

DivisorClass(...) and CurveClass(...) check their coefficients, and every
class, the generators and -K among them, is built by its constructor. Each
FlagVariety builds its generators once, in _cones, the one builder of
generator classes; nef_generators and mori_generators return new lists of
those shared classes. Kleiman's criterion, is_nef and is_ample, which pair
a class with the Mori tuple and which only selfcheck B3 and the tests run,
lives in reference. A curve class keeps its support, the positions of its
nonzero coordinates, in a slot derived from its fields (value's one
storage rule), and intersect pairs Bl*D . tilde C over it: O(1) against a
Mori generator, which has at most one. A nonzero E_Z coefficient adds a
sum over the curve's coordinates.
"""

from enum import Enum
from itertools import compress, count

from .errors import EngineError, wrong_kind
from .flag import BASIS, BETAS, DIM, FlagVariety, _invariants_of
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
    """The one check of a class's coordinates: a tuple basis, a tuple of one
    int per basis node and an int last coefficient (a bool counts, as in
    weyl._letters). A list would leave the class unhashable and unequal
    to the same class built from tuples."""
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
    __slots__ = ("basis", "pullback_coeffs", "exceptional_coeff")

    def __init__(self, basis, pullback_coeffs, exceptional_coeff):
        _check_coeffs(basis, pullback_coeffs, exceptional_coeff)
        set_basis, set_pullback, set_exceptional = self._set
        set_basis(self, basis)  # picard_basis indices, fixes coordinate order
        set_pullback(self, pullback_coeffs)  # over Bl*D_alpha
        set_exceptional(self, exceptional_coeff)  # of E_Z


class CurveClass(Value):
    __slots__ = ("basis", "tilde_coeffs", "e_coeff", "support")
    _fields = __slots__[:3]

    def __init__(self, basis, tilde_coeffs, e_coeff):
        _check_coeffs(basis, tilde_coeffs, e_coeff)
        set_basis, set_tilde, set_e, set_support = self._set
        set_basis(self, basis)
        set_tilde(self, tilde_coeffs)  # over tilde C_alpha
        set_e(self, e_coeff)
        # the positions of the nonzero tilde coefficients, which intersect walks
        set_support(self, tuple(compress(count(), tilde_coeffs)))


class FanoReport(Value):
    __slots__ = ("betas", "margins", "verdict")

    def __init__(self, betas, margins, verdict):
        set_betas, set_margins, set_verdict = self._set
        set_betas(self, betas)
        set_margins(self, margins)  # alpha -> beta_alpha - c + 2
        set_verdict(self, verdict)


_new = object.__new__
_set_betas, _set_margins, _set_verdict = FanoReport._set


def check_codim(c, d):
    """A center of codimension c in a G/P of dimension d needs an int c in 2..d;
    blowup and the closed-form laws of special share this one check."""
    if not (isinstance(c, int) and 2 <= c <= d):
        raise EngineError(
            "codimension %r outside 2..%d" % (c, d) if d >= 2
            else "G/P has dimension %d, so it has no center of codimension >= 2" % d)


def _cones(fv):
    """fv's nef and Mori generator tuples, the one builder of generator
    classes: built on first use and kept beside its invariants, in fv's
    "__dict__" slot. Unit k is the one slice of a zero tuple around a 1,
    shared by Bl*D_k and tilde C_k."""
    cones = fv.__dict__.get("_cones")
    if cones is None:
        basis = fv._invariants[BASIS]
        n = len(basis)
        w = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
        nef, mori = [], []
        for k in range(n):
            unit = w[n - 1 - k:2 * n - 1 - k]
            nef.append(DivisorClass(basis, unit, 0))
            mori.append(CurveClass(basis, unit, 0))
        nef.append(DivisorClass(basis, (1,) * n, -1))
        mori.append(CurveClass(basis, (0,) * n, 1))
        cones = fv.__dict__["_cones"] = tuple(nef), tuple(mori)
    return cones


def _read(fv, c, call):
    """fv's invariants, read once, with c checked against its dimension."""
    inv = _invariants_of(fv, call)
    check_codim(c, inv[DIM])
    return inv


def nef_generators(fv, c):
    """{Bl*D_alpha} plus H - E_Z, with H = sum_alpha Bl*D_alpha: a new list of
    fv's shared classes."""
    _read(fv, c, "nef_generators")
    return list(_cones(fv)[0])


def mori_generators(fv, c):
    """{tilde C_alpha} plus e: a new list of fv's shared classes."""
    _read(fv, c, "mori_generators")
    return list(_cones(fv)[1])


def intersect(d, k):
    """Bilinear pairing from Bl*D_alpha . Bl*C_beta = delta, Bl*D_alpha . e = 0,
    E_Z . Bl*C_beta = 0, E_Z . e = -1, expanding tilde C_alpha = Bl*C_alpha - e.
    The Bl*D . tilde C part runs over the curve's support."""
    if type(d) is not DivisorClass or type(k) is not CurveClass:
        raise EngineError(wrong_kind("intersect", "a DivisorClass and a CurveClass", d, k))
    x, y, support = d.pullback_coeffs, k.tilde_coeffs, k.support
    if d.basis is not k.basis and d.basis != k.basis:
        raise EngineError("divisor basis %r vs curve basis %r" % (d.basis, k.basis))
    dot = 0
    for i in support:
        dot += x[i] * y[i]
    if d.exceptional_coeff:
        # E_Z . tilde C_alpha = 1, E_Z . e = -1
        dot += d.exceptional_coeff * (sum(y) - k.e_coeff)
    return dot


def anticanonical_class(fv, c):
    """-K of the blow-up in both bases (selfcheck B5 checks them against its pairings)."""
    inv = _read(fv, c, "anticanonical_class")
    betas = inv[BETAS].values.values()  # in Picard-basis order
    d = DivisorClass(inv[BASIS], tuple(1 + b for b in betas), 1 - c)
    basis2 = tuple(b + 2 - c for b in betas) + (c - 1,)
    return d, basis2


def classify(fv, c):
    """Fano / weak-Fano verdict for Bl_Z(G/P) with Z a smooth Schubert
    variety of codimension c (existence and smoothness are the caller's
    assertion)."""
    if type(fv) is not FlagVariety:
        raise EngineError(wrong_kind("classify", "a FlagVariety", fv))
    dim, betas, _, least = fv._invariants  # DIM..LEAST: unpacked, the hot path
    if not (type(c) is int and 2 <= c <= dim):  # any c this lets by, check_codim passes
        check_codim(c, dim)
    # a new dict keyed by the Picard basis, ascending
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
