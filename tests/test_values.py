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
    mori_generators,
    nef_generators,
    picard_basis,
)
from schubert_blowup.errors import EngineError
from schubert_blowup.value import Value
from test_cli import subprocess_env

A2 = build_root_system(TypeSpec("A", 2))

# one keyword construction per public value class, fields in declaration order
SAMPLES = [
    (TypeSpec, dict(family="B", rank=3)),
    (Root, dict(coeffs=(1, 0))),
    (Coroot, dict(coeffs=(0, -1))),
    (Weight, dict(coeffs=(1, -2))),
    (RootSystem, dict(spec=A2.spec)),
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


def value_classes():
    """Every subclass of Value, private bases such as _Coords included."""
    found, todo = set(), [Value]
    while todo:
        subclasses = todo.pop().__subclasses__()
        todo += subclasses
        found.update(subclasses)
    return found


def slots(cls):
    """The slots that cls and its bases declare."""
    return {name for base in cls.__mro__ for name in vars(base).get("__slots__", ())}


def test_every_value_class_has_a_sample():
    # so the tests below cover a value class added later; a private base such
    # as _Coords is covered through its public subclasses
    found = {cls for cls in value_classes() if not cls.__name__.startswith("_")}
    assert found == {cls for cls, _ in SAMPLES}


def test_every_value_keeps_its_fields_in_slots():
    # one storage rule: the fields are slots, and an instance has a __dict__
    # only where its class declares one for its cached facts
    for cls in value_classes():
        assert set(cls._fields) <= slots(cls) - {"__dict__"}, cls.__name__
    for cls, fields in SAMPLES:
        x = cls(**fields)
        assert hasattr(x, "__dict__") == ("__dict__" in slots(cls)), cls.__name__


@pytest.mark.parametrize("spec", [TypeSpec("A", 2), TypeSpec("G", 2), TypeSpec("E", 8)], ids=str)
def test_a_root_system_is_its_type(spec):
    # the columns are derived from the type, so a system built apart is the
    # built one in every respect a value has
    rs, built = RootSystem(spec), build_root_system(spec)
    assert rs == built and hash(rs) == hash(built) and rs.columns == built.columns
    assert pickle.loads(pickle.dumps(built)) == rs and repr(rs) == "RootSystem(spec=%r)" % (spec,)


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


@pytest.mark.parametrize("cls", [DivisorClass, CurveClass], ids=["DivisorClass", "CurveClass"])
def test_curve_terms_and_e_degree_are_derived_not_fields(cls):
    # a curve's terms and E_Z degree, which intersect reads, are computed
    # from its coefficients and frozen with them; a divisor keeps neither.
    # Both keep a mark, _dual, which only a generator of _cones sets. The
    # three fields alone make equality, hash, repr and the pickle
    x = cls((1, 2, 3), (0, 2, 0), -1)
    derived = ("terms", "e_degree")
    if cls is CurveClass:
        assert (x.terms, x.e_degree) == (((1, 2),), 3)
        y = cls((1, 2, 3), (0, 0, 0), 0)
        assert (y.terms, y.e_degree) == ((), 0)
        apart = {*derived, "_dual"}
    else:
        assert not any(hasattr(x, name) for name in derived)
        apart = {"_dual"}
    assert len(x._fields) == 3 and set(cls.__slots__) - set(cls._fields) == apart
    for name in apart:
        with pytest.raises(AttributeError):
            setattr(x, name, ())
        with pytest.raises(AttributeError):
            delattr(x, name)
    y = cls(tuple([1, 2, 3]), (0, 2, 0), -1)  # an equal basis, not the same tuple
    assert x == y and hash(x) == hash(y) == hash(((1, 2, 3), (0, 2, 0), -1))
    assert x.__reduce__() == (cls, ((1, 2, 3), (0, 2, 0), -1))
    assert not any(name in repr(x) for name in apart)
    z = pickle.loads(pickle.dumps(x))
    assert z == x and all(getattr(z, name, None) == getattr(x, name, None) for name in derived)
    # a marked generator and its unmarked copy: equal, with one hash, repr
    # and pickle; the copy and the unpickled class carry no mark
    generators = nef_generators if cls is DivisorClass else mori_generators
    g = generators(FlagVariety(A2, ParabolicSubset.of(())), 2)[1]
    u = cls(*g.__reduce__()[1])
    assert (g._dual, x._dual, u._dual, pickle.loads(pickle.dumps(g))._dual) == (1, None, None, None)
    assert g == u and hash(g) == hash(u) and repr(g) == repr(u)
    assert pickle.dumps(g) == pickle.dumps(u)


# the test's earlier name, when the one derived slot was the support, kept as a
# second name for its ids
test_class_support_is_derived_not_a_field = test_curve_terms_and_e_degree_are_derived_not_fields


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
    assert "_invariants" in vars(fv)  # built with the variety, not on first use
    assert dimension(fv) == 2
    # one basis tuple per FlagVariety, shared by every class built on it
    assert picard_basis(fv) is picard_basis(fv)
    assert all(x.basis is picard_basis(fv)
               for x in nef_generators(fv, 2) + mori_generators(fv, 2))
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


def test_special_is_imported_on_first_access():
    # no CLI query reads the closed-form laws, but the package attribute stays
    code = (
        "import sys\n"
        "import schubert_blowup as sb\n"
        "print('schubert_blowup.special' in sys.modules, hasattr(sb, 'no_such_name'))\n"
        "print(sb.special.full_flag_classify.__name__, 'special' in sb.__all__)\n"
        "print('schubert_blowup.special' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\nfull_flag_classify True\nTrue\n"


def test_reference_names_are_imported_on_first_access():
    # no CLI query runs them, but each stays a package attribute in __all__
    lazy = dict.fromkeys(["height", "pairing", "coroot_of", "root_as_weight", "rho", "act"],
                         "reference")
    lazy["all_types"] = "table"
    code = (
        "import sys\n"
        "import schubert_blowup as sb\n"
        "held = ['schubert_blowup.reference', 'schubert_blowup.table']\n"
        "print([m for m in held if m in sys.modules])\n"
        "for name in %r:\n"
        "    fn = getattr(sb, name)\n"
        "    print(fn.__module__, fn.__name__ == name, name in sb.__all__)\n"
        "print([m for m in held if m in sys.modules])\n" % list(lazy)
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(
        ["[]\n"] + ["schubert_blowup.%s True True\n" % module for module in lazy.values()]
        + ["['schubert_blowup.reference', 'schubert_blowup.table']\n"])
