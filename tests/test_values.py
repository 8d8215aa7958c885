"""The public value types: frozen fields, equality for the same type only,
keyword construction, and a package import without `dataclasses`."""

import pickle
import subprocess
import sys
from types import MappingProxyType

import pytest

from schubert_blowup import (
    BetaVector,
    Coroot,
    CurveClass,
    DivisorClass,
    FanoReport,
    FlagVariety,
    ParabolicSubset,
    Root,
    RootSystem,
    SchubertDatum,
    TypeSpec,
    Verdict,
    Weight,
    WeylWord,
    build_root_system,
    dimension,
)
from schubert_blowup.errors import EngineError
from test_cli import subprocess_env

A2 = build_root_system(TypeSpec("A", 2))

# one keyword construction per public value class, fields in declaration order
SAMPLES = [
    (TypeSpec, dict(family="B", rank=3)),
    (Root, dict(coeffs=(1, 0))),
    (Coroot, dict(coeffs=(0, -1))),
    (Weight, dict(coeffs=(1, -2))),
    (RootSystem, dict(spec=A2.spec, cartan=A2.cartan, positive_roots=A2.positive_roots,
                      highest_root=A2.highest_root, symmetrizers=A2.symmetrizers)),
    (WeylWord, dict(letters=(1, 2, 1))),
    (ParabolicSubset, dict(members=frozenset({1}))),
    (FlagVariety, dict(rs=A2, par=ParabolicSubset.of({1}))),
    (BetaVector, dict(values=MappingProxyType({2: 0}))),
    (SchubertDatum, dict(dim=0, codim=2)),
    (DivisorClass, dict(basis=(2,), pullback_coeffs=(1,), exceptional_coeff=-1)),
    (CurveClass, dict(basis=(2,), tilde_coeffs=(0,), e_coeff=1)),
    (FanoReport, dict(betas=BetaVector(MappingProxyType({2: 0})), margins={2: 0},
                      verdict=Verdict.WEAK_FANO_NOT_FANO)),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]
# the read-only betas (a mapping proxy) among the fields: neither hashable nor
# picklable, as with the dataclasses before
UNHASHABLE = {BetaVector, FanoReport}


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields):
    by_keyword = cls(**fields)
    assert by_keyword == cls(*fields.values())
    assert all(getattr(by_keyword, k) is v for k, v in fields.items())
    args = ", ".join("%s=%r" % kv for kv in fields.items())
    assert repr(by_keyword) == "%s(%s)" % (cls.__name__, args)


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_fields_are_frozen(cls, fields):
    x = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is value
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(cls, fields):
    x, y = cls(**fields), cls(**fields)
    assert x == y and not x != y
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
        assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_equality_needs_the_same_type(cls, fields):
    x = cls(**fields)
    assert x != tuple(fields.values())
    assert x.__eq__(tuple(fields.values())) is NotImplemented
    assert x != object()


def test_coordinate_bases_never_compare_equal():
    root, coroot, weight = Root((1, 0)), Coroot((1, 0)), Weight((1, 0))
    assert root != weight and weight != root
    assert root != coroot and coroot != weight
    assert len({root, coroot, weight}) == 3


def test_constructor_checks_survive():
    with pytest.raises(EngineError, match=r"rank 0 not admissible for family A \(allowed 1\.\.16\)"):
        TypeSpec("A", 0)
    with pytest.raises(EngineError, match=r"unknown family 'H'"):
        TypeSpec(family="H", rank=3)
    with pytest.raises(EngineError, match=r"mixed-sign root coordinates \(1, -1\)"):
        Root((1, -1))
    with pytest.raises(EngineError, match=r"mixed-sign coroot coordinates \(-1, 2\)"):
        Coroot(coeffs=(-1, 2))
    assert Weight((1, -1)).coeffs == (1, -1)  # weights carry no sign rule


def test_flag_variety_caches_invariants_and_stays_frozen():
    fv = FlagVariety(A2, ParabolicSubset.of({1}))
    assert "_invariants" not in vars(fv)  # lazy: computed on first use
    assert dimension(fv) == 2
    assert "_invariants" in vars(fv)
    with pytest.raises(AttributeError):
        fv.rs = A2
    assert fv == FlagVariety(A2, ParabolicSubset.of({1}))


def test_package_import_needs_no_dataclasses():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import schubert_blowup.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'schubert_blowup.selfcheck'}\n"
        "             & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
