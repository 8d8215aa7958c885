"""Exact-arithmetic Fano / weak-Fano classification of blow-ups of
generalized flag varieties along smooth Schubert varieties."""

from .rootsys import (
    TypeSpec,
    Root,
    Coroot,
    Weight,
    RootSystem,
    build_root_system,
    height,
    pairing,
    coroot_of,
    root_as_weight,
    rho,
)
from .weyl import (
    WeylWord,
    ParabolicSubset,
    act,
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
    anticanonical_weight,
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
    is_nef,
    is_ample,
    classify,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["special"]


def __getattr__(name):
    # no CLI query reads the closed-form laws, so `special` is imported on
    # first access
    if name == "special":
        from importlib import import_module
        return import_module(".special", __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
