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
from . import special

__all__ = [name for name in dir() if not name.startswith("_")]
