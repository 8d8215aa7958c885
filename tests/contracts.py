"""The argument kinds of every call, stated once in CONTRACTS, which
test_weyl's wrong-kind walk and test_cli's random caller both read.

CONTRACTS maps each callable of public_callables() (__all__ and the public
functions of special), and each reader of reference and table that checks
a kind, to two things: the kind of each of its parameters, in the order of
params(f), and its kind checks. A kind is a type or a tuple of types, and
a value is of it when isinstance says so, so a bool is an int. A kind
check is the needs phrase of the call's errors.wrong_kind message, mapped
to the parameters whose types that message names. A parameter of kind
WeylWord is checked by weyl._letters, which writes its own message. A new
call adds one line.
"""

import inspect
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

import schubert_blowup as B
from schubert_blowup import (
    BetaVector, Coroot, CurveClass, DivisorClass, FanoReport, FlagVariety, ParabolicSubset,
    Root, RootSystem, SchubertDatum, TypeSpec, Verdict, Weight, WeylWord, reference, special,
    table,
)

FV, RS = {"a FlagVariety": "fv"}, {"a RootSystem": "rs"}
PAR_RS = {"a ParabolicSubset and a RootSystem": "par rs"}
CLASS = (tuple, tuple, int)  # basis, coefficients over it, E or e coefficient

CONTRACTS = {
    TypeSpec: ((str, int), {}),
    RootSystem: ((TypeSpec,), {"a TypeSpec": "spec"}),
    B.build_root_system: ((TypeSpec,), {"a TypeSpec": "spec"}),
    WeylWord: ((tuple,), {}),
    ParabolicSubset: ((tuple,), {}),
    B.length: ((WeylWord, RootSystem), RS),
    B.longest_element: ((ParabolicSubset, RootSystem), PAR_RS),
    B.enumerate_coset_reps: ((ParabolicSubset, RootSystem, int), PAR_RS),
    FlagVariety: ((RootSystem, ParabolicSubset), {"a RootSystem and a ParabolicSubset": "rs par"}),
    BetaVector: ((MappingProxyType,), {"a MappingProxyType": "values"}),
    SchubertDatum: ((int, int), {"two ints": "dim codim"}),
    B.dimension: ((FlagVariety,), FV),
    B.picard_basis: ((FlagVariety,), FV),
    B.beta_values: ((FlagVariety,), FV),
    B.schubert_codim: ((FlagVariety, WeylWord), FV),
    DivisorClass: (CLASS, {}),
    CurveClass: (CLASS, {}),
    FanoReport: ((BetaVector, dict, Verdict),
                 {"a BetaVector, a dict and a Verdict": "betas margins verdict"}),
    Verdict: ((str,), {}),
    B.nef_generators: ((FlagVariety, int), FV),
    B.mori_generators: ((FlagVariety, int), FV),
    B.intersect: ((DivisorClass, CurveClass), {"a DivisorClass and a CurveClass": "d k"}),
    B.anticanonical_class: ((FlagVariety, int), FV),
    B.classify: ((FlagVariety, int), FV),
    Root: ((tuple,), {}),
    Coroot: ((tuple,), {}),
    Weight: ((tuple,), {}),
    B.height: ((Root,), {"a Root": "r"}),
    B.pairing: ((Weight, Coroot), {"a Weight and a Coroot": "w c"}),
    B.coroot_of: ((Root, RootSystem), {"a Root and a RootSystem": "r rs"}),
    B.root_as_weight: ((Root, RootSystem), {"a Root and a RootSystem": "r rs"}),
    B.rho: ((RootSystem,), RS),
    B.act: ((WeylWord, (Weight, Root, Coroot), RootSystem),
            {"a Weight, Root or Coroot": "x", **RS}),
    B.anticanonical_weight: ((FlagVariety,), FV),
    B.is_nef: ((FlagVariety, DivisorClass), {"a FlagVariety and a DivisorClass": "fv d"}),
    B.is_ample: ((FlagVariety, DivisorClass), {"a FlagVariety and a DivisorClass": "fv d"}),
    B.all_types: ((int, str), {}),  # a str is a sequence of one-letter family names
    special.grassmannian_classify: ((int, int, int), {}),
    special.cominuscule_nodes: ((RootSystem,), RS),
    special.dual_height: ((RootSystem,), RS),
    special.cominuscule_classify: ((RootSystem, int, int), RS),
    special.full_flag_classify: ((RootSystem, int), RS),
    reference.cartan: ((RootSystem,), RS),
    reference.highest_root: ((RootSystem,), RS),
    reference.simple_coroot: ((RootSystem, int), RS),
    table._least_beta: ((FlagVariety,), FV),
}


def params(f):
    """The names of the parameters that a caller of f passes: a class's
    required ones, a function's positional ones."""
    return [p.name for p in inspect.signature(f).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD
            and (p.default is p.empty or inspect.isfunction(f))]


def public_callables():
    """Every callable of __all__ and every public function of special."""
    named = [getattr(B, n) for n in B.__all__]
    named += [f for n, f in vars(special).items()
              if inspect.isfunction(f) and f.__module__ == special.__name__ and n[0] != "_"]
    return [f for f in named if callable(f)]


def _like(value, *names):
    """A look-alike of value: a SimpleNamespace with its attributes names."""
    return SimpleNamespace(**{name: getattr(value, name) for name in names})


GENERATOR = object()  # drawn as a new one-shot generator each time


def drawn(value):
    """value as a call takes it: GENERATOR becomes a new one-shot generator."""
    return (i for i in (1, 2)) if value is GENERATOR else value


def argument_pool():
    """The arguments of the wrong-kind walk and the random caller: valid
    values of every kind, the first of each kind all on A2; values of no
    kind of the package; and look-alikes, SimpleNamespaces that carry the
    attributes of a valid value (or of a type past the bounds). The class
    look-alikes carry the slots, the mark _dual among them, of the first
    variety's first nef and Mori generators, so that intersect's kind check
    meets forged marks that agree with the pool's first curve. The last
    look-alike carries the letters and the mark of a word that an
    enumeration on the first system for the first variety's S_P returned,
    so that weyl._coset_length's test of the mark sees a forged one."""
    specs = [TypeSpec(f, r) for f, r in (("A", 2), ("B", 3), ("G", 2))]
    systems = [RootSystem(spec) for spec in specs]
    pars = [ParabolicSubset(m) for m in ((), (1,), (2,), (1, 2))]
    fvs = [FlagVariety(rs, par) for rs, par in zip(systems, (pars[1], pars[2], pars[0]))]
    words = [WeylWord(t) for t in ((), (1,), (2,), (2, 1), (1, 2), (3, 2, 1), (1, 1))]
    divisors = [B.anticanonical_class(fvs[0], 2)[0], B.nef_generators(fvs[1], 2)[-1]]
    curves = B.mori_generators(fvs[0], 2)
    coords = [Root((1, 0)), Root((1, 1)), Root((0, 1, 1)), Coroot((0, 1)), Weight((1, -1)),
              Weight((1, 1, 1))]
    betas = B.beta_values(fvs[1])
    valid = [*specs, *systems, *pars, *fvs, *words, *divisors, *curves, *coords,
             0, 1, 2, 3, 4, 6, -1, True, 10 ** 30, betas, betas.values, B.classify(fvs[1], 3),
             Verdict.FANO, B.schubert_codim(fvs[0], words[2]), "A", "B", "E", "G", "Z",
             (1, 0), (1, -1), (), (1, 2)]
    wrong = [None, 2.5, Fraction(1), float("nan"), "ab", b"A", [1, 2], {1: 2}, {1},
             GENERATOR, object(), SimpleNamespace()]
    alike = [SimpleNamespace(family=f, rank=r) for f, r in (("A", 2), ("A", 40), ("Z", 2),
                                                           ("E", 9))]
    alike += [_like(pars[1], "members"), _like(words[3], "letters"),
              _like(systems[1], "spec", "rank", "columns", "positive_roots"),
              _like(fvs[0], "rs", "par", "_invariants"),
              _like(B.nef_generators(fvs[0], 2)[0], "basis", "pullback_coeffs",
                    "exceptional_coeff", "_dual"),
              _like(curves[0], "basis", "tilde_coeffs", "e_coeff", "terms", "e_degree", "_dual"),
              _like(B.enumerate_coset_reps(pars[1], systems[0], 1)[1], "letters", "_coset")]
    return valid + wrong + alike
