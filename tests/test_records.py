"""The package's immutable value types: construction, repr, equality, hash, immutability, copy and pickle."""

import copy
import math
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import eitdisk
from eitdisk.conformal import ArcSpec
from eitdisk.errors import DomainError, KindMismatchError
from eitdisk.fields import FourierRadialField, RadialProfile
from eitdisk.forward import BoundaryMode, conductivity_dtn
from eitdisk.inverse import MomentData, ValidationCheck, ValidationReport, reconstruct
from eitdisk.muntz import ExponentSequence, MuntzPolynomial, TriangularMatrix, WeightedFamily
from eitdisk.quadrature import QuadratureSpec

# (class, field names, positional arguments, repr of the instance)
CASES = [
    (RadialProfile, ("terms",), ([(2, F(1, 3)), (0, 1)],),
     "RadialProfile(terms=((0, 1), (2, Fraction(1, 3))))"),
    (FourierRadialField, ("kind", "cos", "sin"), ("conductivity", {1: [(1, 0.5)]}, {2: RadialProfile(())}),
     "FourierRadialField(kind='conductivity', cos={1: RadialProfile(terms=((1, 0.5),))}, "
     "sin={2: RadialProfile(terms=())})"),
    (BoundaryMode, ("parity", "frequency"), ("sin", 2), "BoundaryMode(parity='sin', frequency=2)"),
    (MomentData, ("k", "parity", "values", "origin_shift"), (1, "cos", [F(1, 3), 0.5], 1),
     "MomentData(k=1, parity='cos', values=(Fraction(1, 3), 0.5), origin_shift=1)"),
    (ValidationCheck, ("name", "deviation", "passed"), ("cc_symmetric", 0.0, True),
     "ValidationCheck(name='cc_symmetric', deviation=0.0, passed=True)"),
    (ValidationReport, ("kind", "tol", "checks"), ("conductivity", 1e-9, (ValidationCheck("a", 0.25, False),)),
     "ValidationReport(kind='conductivity', tol=1e-09, "
     "checks=(ValidationCheck(name='a', deviation=0.25, passed=False),))"),
    (MuntzPolynomial, ("exponents", "coefficients"), ((F(1, 2), 2), (F(-3, 2), 1)),
     "MuntzPolynomial(exponents=(Fraction(1, 2), 2), coefficients=(Fraction(-3, 2), 1))"),
    (WeightedFamily, ("k", "rows"), (1, ((F(1),), (F(-3), F(4)))),
     "WeightedFamily(k=1, rows=((Fraction(1, 1),), (Fraction(-3, 1), Fraction(4, 1))))"),
    (TriangularMatrix, ("rows",), (((F(1),), (F(1, 2), 2)),),
     "TriangularMatrix(rows=((Fraction(1, 1),), (Fraction(1, 2), 2)))"),
    (QuadratureSpec, ("n_r", "n_phi"), (8, 16), "QuadratureSpec(n_r=8, n_phi=16)"),
    (ArcSpec, ("alpha",), (0.5,), "ArcSpec(alpha=0.5)"),
    (ExponentSequence, ("lambdas",), ((F(1, 2), 2),), "ExponentSequence([Fraction(1, 2), Fraction(2, 1)])"),
]
IDS = [case[0].__name__ for case in CASES]
# a valid last argument that differs from the one in CASES, where 0.75 is not
OTHER_LAST = {RadialProfile: [(0, 1)], FourierRadialField: {3: [(0, 1)]}, BoundaryMode: 3, MomentData: 0,
              TriangularMatrix: ((F(2),),), QuadratureSpec: 17, ArcSpec: 0.25,
              ExponentSequence: (0, 1)}


@pytest.mark.parametrize("cls, names, args, text", CASES, ids=IDS)
def test_repr_text(cls, names, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, names, args, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, args, text):
    keywords = dict(zip(names, args))
    x = cls(*args)
    assert cls(**keywords) == x
    assert cls(*args[:1], **dict(list(keywords.items())[1:])) == x


def test_default_arguments():
    assert QuadratureSpec() == QuadratureSpec(64, 512) == QuadratureSpec(n_phi=512)
    assert repr(QuadratureSpec()) == "QuadratureSpec(n_r=64, n_phi=512)"
    assert QuadratureSpec(8) == QuadratureSpec(8, 512)
    empty = FourierRadialField("potential")
    assert empty == FourierRadialField("potential", {}, {}) == FourierRadialField(kind="potential", sin={})
    assert repr(empty) == "FourierRadialField(kind='potential', cos={}, sin={})"
    empty.cos[0] = RadialProfile([(0, 1)])  # the default tables are not shared between fields
    assert FourierRadialField("potential").cos == {}


@pytest.mark.parametrize("cls, names, args, text", CASES, ids=IDS)
def test_equality_within_one_class_only(cls, names, args, text):
    x, y = cls(*args), cls(*args)
    assert x == y and not x != y
    assert x is not y
    sub = type(cls.__name__ + "Sub", (cls,), {})(*args)
    assert x != sub and not x == sub and sub != x
    values = tuple(getattr(x, name) for name in names)
    assert x != values and values != x
    assert x != cls(*args[:-1], OTHER_LAST.get(cls, 0.75))


@pytest.mark.parametrize("a, b", [
    (TriangularMatrix(((0, 1),)), RadialProfile([(0, 1)])),
    (ArcSpec(0.5), TriangularMatrix(0.5)),
    (QuadratureSpec(2, 3), WeightedFamily(2, 3)),
    (BoundaryMode("cos", 2), MuntzPolynomial("cos", 2)),
    (ValidationCheck("x", 0.0, True), ValidationReport("x", 0.0, True)),
    (FourierRadialField("potential", {}, {}), ValidationReport("potential", {}, {})),
], ids=["terms-rows", "alpha", "orders", "mode", "check-report", "field-report"])
def test_records_of_other_types_with_the_same_values_differ(a, b):
    assert a != b and b != a
    assert not a == b and not b == a


@pytest.mark.parametrize("cls, names, args, text", CASES, ids=IDS)
def test_hash_follows_equality(cls, names, args, text):
    x, y = cls(*args), cls(*args)
    if cls is FourierRadialField:  # its profile tables are dicts
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
        return
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("cls, names, args, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, args, text):
    x = cls(*args)
    before = repr(x)
    for name in names:
        with pytest.raises(AttributeError) as info:
            setattr(x, name, None)
        assert str(info.value) == f"cannot assign to field {name!r}"
        with pytest.raises(AttributeError) as info:
            delattr(x, name)
        assert str(info.value) == f"cannot delete field {name!r}"
    with pytest.raises(AttributeError) as info:
        x.extra = 1
    assert str(info.value) == "cannot assign to field 'extra'"
    assert repr(x) == before


@pytest.mark.parametrize("cls, names, args, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_equal_records(cls, names, args, text):
    x = cls(*args)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls
        assert twin == x and repr(twin) == text


def test_copies_of_a_profile_recompute_its_moments():
    profile = RadialProfile([(0, F(1, 3)), (3, 0.5)])
    want = profile.moment_exact(2)  # fills the profile's cache first
    for twin in (copy.copy(profile), copy.deepcopy(profile), pickle.loads(pickle.dumps(profile))):
        assert twin.moment_exact(2) == want == F(1, 9) + F(1, 12)


@pytest.mark.parametrize("build, error, message", [
    (lambda: RadialProfile(), TypeError, "RadialProfile.__init__() missing 1 required positional argument: 'terms'"),
    (lambda: RadialProfile([(0, 1), (0, 2)]), DomainError, "duplicate radial power 0"),
    (lambda: RadialProfile([(-1, 1)]), DomainError, "radial powers must be non-negative (integers only), not -1"),
    (lambda: RadialProfile([(0, "x")]), DomainError, "radial profile value 'x' is not a real number"),
    (lambda: FourierRadialField(), TypeError,
     "FourierRadialField.__init__() missing 1 required positional argument: 'kind'"),
    (lambda: FourierRadialField("nonsense", {"x": 1}), KindMismatchError, "unknown field kind 'nonsense'"),
    (lambda: FourierRadialField(np.array(["potential", "conductivity"])), KindMismatchError,
     "unknown field kind array(['potential', 'conductivity'], dtype='<U12')"),
    (lambda: FourierRadialField("potential", sin={0: []}), DomainError,
     "sin orders must be positive (integers only), not 0"),
    (lambda: FourierRadialField("potential", {}, {}, {}), TypeError,
     "FourierRadialField.__init__() takes from 2 to 4 positional arguments but 5 were given"),
    (lambda: BoundaryMode("cos"), TypeError,
     "BoundaryMode.__init__() missing 1 required positional argument: 'frequency'"),
    (lambda: BoundaryMode("tan", -1), DomainError, "parity must be 'cos' or 'sin', got 'tan'"),
    (lambda: BoundaryMode(np.array(["cos", "sin"]), 1), DomainError,
     "parity must be 'cos' or 'sin', got array(['cos', 'sin'], dtype='<U3')"),
    (lambda: BoundaryMode("sin", 0), DomainError, "sin frequencies must be positive (integers only), not 0"),
    (lambda: MomentData(1, "cos", ()), TypeError,
     "MomentData.__init__() missing 1 required positional argument: 'origin_shift'"),
    (lambda: MomentData(-1, "odd", ("x",), 2), DomainError, "parity must be 'cos' or 'sin', got 'odd'"),
    (lambda: MomentData(-1, "cos", ("x",), 2), DomainError,
     "angular order k must be non-negative (integers only), not -1"),
    (lambda: MomentData(1, "cos", ("x",), 2), DomainError, "origin_shift must be 0 or 1"),
    (lambda: MomentData(1, "cos", ("x",), 0), DomainError, "moment value 'x' is not a real number"),
    (lambda: MomentData(1, "cos", (math.nan,), 0), DomainError, "moment value nan is non-finite"),
    (lambda: ValidationCheck(name="x"), TypeError,
     "ValidationCheck.__init__() missing 2 required positional arguments: 'deviation' and 'passed'"),
    (lambda: ValidationReport("x", 0.0, (), ()), TypeError,
     "ValidationReport.__init__() takes 4 positional arguments but 5 were given"),
    (lambda: MuntzPolynomial(()), TypeError,
     "MuntzPolynomial.__init__() missing 1 required positional argument: 'coefficients'"),
    (lambda: WeightedFamily(rows=()), TypeError,
     "WeightedFamily.__init__() missing 1 required positional argument: 'k'"),
    (lambda: TriangularMatrix(rows=(), size=1), TypeError,
     "TriangularMatrix.__init__() got an unexpected keyword argument 'size'"),
    (lambda: QuadratureSpec(0), DomainError, "quadrature orders must be positive (integers only), not 0"),
    (lambda: QuadratureSpec(8, 2.0), DomainError, "quadrature orders must be positive (integers only), not 2.0"),
    (lambda: QuadratureSpec(1, 2, 3), TypeError,
     "QuadratureSpec.__init__() takes from 1 to 3 positional arguments but 4 were given"),
    (lambda: ArcSpec(), TypeError, "ArcSpec.__init__() missing 1 required positional argument: 'alpha'"),
    (lambda: ArcSpec(alpha=0.5, beta=1), TypeError, "ArcSpec.__init__() got an unexpected keyword argument 'beta'"),
    (lambda: ArcSpec(2.0), DomainError, "alpha must lie in (0, pi/2), got 2.0"),
    (lambda: reconstruct(conductivity_dtn(FourierRadialField("conductivity", {0: [(0, 1)]}), 1),
                         arithmetic=np.array(["auto", "float"])), DomainError,
     "unknown arithmetic mode array(['auto', 'float'], dtype='<U5')"),
])
def test_bad_arguments_raise_the_same_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_importing_the_package_and_its_cli_loads_no_dataclasses():
    # the records are plain classes: a dataclass would exec generated code on every import
    src = str(pathlib.Path(eitdisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, eitdisk, eitdisk.io, eitdisk.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
