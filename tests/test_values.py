"""Value types are validated tuples of their fields; records are plain classes.

The derivation search iterates sets of atoms, so a value's hash must be the
hash of the plain tuple of its fields, as it was when these were frozen
dataclasses; equality and ordering go by fields, and nothing can be
assigned.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import thetasums
from thetasums import (
    Decomposition,
    PolygonalSum,
    ProductTerm,
    QuadTerm,
    ThetaAtom,
    ThetaExpression,
    UniversalityVerdict,
)
from thetasums.catalog import Row
from thetasums.dsl import SourceSpan
from thetasums.theta import ThetaError
from thetasums.transfer import DecompositionError, VerifyOutcome

Y1, Y4, Y8 = ThetaAtom(1, 5), ThetaAtom(4, 20), ThetaAtom(8, 40)
P3, P8 = QuadTerm(1, 1, 1), QuadTerm(1, 6, 4)
LHS = ProductTerm(1, 0, (Y1, Y1, Y1))
RHS = (ProductTerm(1, 0, (Y4, Y4, Y4)), ProductTerm(2, 1, (Y4, Y4, Y8)))

# (type, fields, fields of a larger value of the same type)
VALUES = [
    (ThetaAtom, (1, 5), (2, 1)),
    (ProductTerm, (1, 0, (Y1,)), (1, 1, (Y1,))),
    (ThetaExpression, ((LHS,),), ((LHS, LHS),)),
    (QuadTerm, (1, 1, -1), (1, 6, -4)),
    (PolygonalSum, ((P3, P8),), ((P8, P3),)),
    (Decomposition, (LHS, 4, RHS), (LHS, 4, RHS[1:])),
    (VerifyOutcome, (False, 3, "x", 1, 2), (True, None, "", None, None)),
    (Row, ("Q1", "decomposition", "fail", "d"), ("Q1", "decomposition", "pass", "d")),
    (SourceSpan, (1, 2, 3), (2, 1, 1)),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, fields, larger", VALUES, ids=IDS)
def test_a_value_is_the_tuple_of_its_fields(cls, fields, larger):
    value = cls(*fields)
    assert tuple(getattr(value, name) for name in cls._fields) == fields
    assert value == cls(**dict(zip(cls._fields, fields))) == fields
    assert hash(value) == hash(fields)
    assert value != cls(*larger)
    assert value < cls(*larger) and not cls(*larger) < value
    assert sorted([cls(*larger), value]) == [value, cls(*larger)]


@pytest.mark.parametrize("cls, fields, larger", VALUES, ids=IDS)
def test_a_value_cannot_be_assigned_to(cls, fields, larger):
    value = cls(*fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, larger[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == fields


def test_sequence_fields_are_stored_as_tuples():
    assert ProductTerm(1, 0, [Y1]).atoms == (Y1,)
    assert ThetaExpression([LHS]).terms == (LHS,)
    assert ThetaExpression() == ((),)
    assert PolygonalSum([P3, P8]).terms == (P3, P8)
    assert Decomposition(LHS, 4, list(RHS)).rhs == RHS


def test_replace_goes_through_the_checks():
    assert P8._replace(b=4) == P8 == (1, 6, -4)
    assert Y1._replace(j=1) == (1, 1)
    assert Decomposition(LHS, 4, RHS)._replace(rhs=list(RHS)).rhs == RHS
    assert ThetaExpression()._replace(terms=[LHS]).terms == (LHS,)
    for value, field, bad in [
        (Y1, "i", -1),
        (LHS, "multiplier", 0),
        (P8, "a", 0),
        (PolygonalSum((P3,)), "terms", ()),
        (Decomposition(LHS, 4, RHS), "modulus", 1),
    ]:
        with pytest.raises(ValueError):
            value._replace(**{field: bad})


def test_derived_forms_keep_their_meaning():
    assert QuadTerm(1, 6, 4) == QuadTerm(1, 6, -4) == (1, 6, -4)
    assert len(PolygonalSum((P3, P3, P8))) == 3
    assert VerifyOutcome(True) == (True, None, "", None, None)
    assert VerifyOutcome(False, 3, "x", 1, 2)._replace(detail="y").detail == "y"
    assert Row("k", "identity", "pass", "").ok and not Row("k", "identity", "fail", "").ok
    assert str(SourceSpan(2, 3, 5)) == "line 2, cols 3-5"


def test_reprs():
    assert repr(ThetaAtom(1, 5)) == "ThetaAtom(i=1, j=5)"
    assert repr(QuadTerm(2, 6, 4)) == "QuadTerm(coeff=2, a=6, b=-4)"
    # Top-aligned: bit 10 - n is set for each gap n.
    verdict = UniversalityVerdict(10, 0b1010000000)
    assert repr(verdict) == "UniversalityVerdict(bound=10)"
    assert verdict.missing == (1, 3) and verdict.missing_count == 2
    assert not verdict.universal and UniversalityVerdict(10).universal


def _shifted(shift, atoms=(Y4, Y4, Y4)):
    return ProductTerm(1, shift, atoms)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ThetaAtom(-1, 2), ThetaError, "negative atom exponent in (-1, 2)"),
        (lambda: ThetaAtom(2, -1), ThetaError, "negative atom exponent in (2, -1)"),
        (lambda: ThetaAtom(0, 0), ThetaError, "atom (0, 0) is not a theta function"),
        (lambda: ProductTerm(0, 0, (Y1,)), ThetaError, "term multiplier must be >= 1"),
        (lambda: ProductTerm(1, -1, (Y1,)), ThetaError, "term shift must be nonnegative"),
        (lambda: ProductTerm(1, 0, ()), ThetaError, "term needs at least one atom"),
        (lambda: QuadTerm(0, 1, 1), ValueError, "term coefficient must be >= 1"),
        (lambda: QuadTerm(1, 0, 0), ValueError, "leading parameter must be >= 1"),
        (lambda: QuadTerm(1, 2, 1), ValueError, "parity violation: 2 and -1 differ mod 2"),
        (lambda: QuadTerm(1, 1, 3), ValueError, "|b| > a would produce negative values"),
        (lambda: PolygonalSum(()), ValueError, "a polygonal sum needs at least one term"),
        (
            lambda: Decomposition(LHS, 1, RHS),
            DecompositionError,
            "modulus must be >= 2",
        ),
        (
            lambda: Decomposition(ProductTerm(2, 0, LHS.atoms), 4, RHS),
            DecompositionError,
            "lhs must be a bare product (multiplier 1, shift 0)",
        ),
        (
            lambda: Decomposition(ProductTerm(1, 0, (Y1, Y1)), 4, RHS),
            DecompositionError,
            "lhs must be a product of 3 or 4 atoms",
        ),
        (
            lambda: Decomposition(LHS, 4, ()),
            DecompositionError,
            "decomposition needs at least one rhs term",
        ),
        (
            lambda: Decomposition(LHS, 4, (_shifted(0, (Y4, Y4)),)),
            DecompositionError,
            "rhs terms must match the lhs arity",
        ),
        (
            lambda: Decomposition(LHS, 4, (_shifted(4),)),
            DecompositionError,
            "shift 4 outside 0..3",
        ),
        (
            lambda: Decomposition(LHS, 4, (_shifted(1), _shifted(1))),
            DecompositionError,
            "duplicate shift 1",
        ),
        (
            lambda: Decomposition(LHS, 4, (_shifted(0, (Y4, Y4, Y1)),)),
            DecompositionError,
            "atom (1, 5) exponents not divisible by 4",
        ),
    ],
)
def test_every_validation_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks of the host out: only the package's own imports count.
    src = Path(thetasums.__file__).resolve().parents[1]
    code = (
        "import sys, thetasums.cli; "
        "print(thetasums.__file__); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve() == Path(thetasums.__file__).resolve()
    assert loaded == "[]"
