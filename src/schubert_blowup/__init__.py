"""Exact-arithmetic Fano / weak-Fano classification of blow-ups of
generalized flag varieties along smooth Schubert varieties.

Importing the package loads only what a classify or cones query runs.
The names in _LAZY, which no such query reads, stay public and in
__all__, and their module is imported on first access: the closed-form
laws of special, the reference layer (the coordinate bases, the root
closure, coroots, pairings, the Weyl action, the -K weight and the cone
test) and table's list of types."""

from .rootsys import (
    TypeSpec,
    RootSystem,
    build_root_system,
)
from .weyl import (
    WeylWord,
    ParabolicSubset,
    length,
    longest_element,
    enumerate_coset_reps,
)
from .flag import (
    FlagVariety,
    BetaVector,
    SchubertDatum,
    dimension,
    picard_basis,
    beta_values,
    schubert_codim,
)
from .blowup import (
    DivisorClass,
    CurveClass,
    FanoReport,
    Verdict,
    nef_generators,
    mori_generators,
    intersect,
    anticanonical_class,
    classify,
)

# name -> the module that holds it, or that is it
_LAZY = dict.fromkeys(("Root", "Coroot", "Weight", "height", "pairing", "coroot_of",
                       "root_as_weight", "rho", "act", "anticanonical_weight", "is_nef",
                       "is_ample"), "reference")
_LAZY.update(all_types="table", special="special")

__all__ = [name for name in dir() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    module = import_module("." + _LAZY[name], __name__)
    return module if name == _LAZY[name] else getattr(module, name)
