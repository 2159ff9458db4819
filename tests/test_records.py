"""The result records keep the behaviour they had as dataclasses, written
out as expected values: positional and keyword construction,
`Name(field=value, ...)` reprs, equality and hash on the compared fields,
and `LeftIdeal`'s refusals.  No field takes an assignment."""

import copy
import pickle
from fractions import Fraction

import pytest

from quatca.cli import Report
from quatca.errors import InvalidInput
from quatca.modules import EigenTuple, RootNotFound
from quatca.mpoly import CommutingPoint, LeftIdeal, MPoly, NotFoundWithinBounds, RabinowitschCertificate
from quatca.ratfactor import CentralFactorization
from quatca.scalars import Centralizer, I, J, ONE, ZERO
from quatca.upoly import Isolated, RootSpaceBasis, Sphere, UPoly

X = MPoly.variable(0, 1)
Q_ONE = "Quat(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))"
Q_ZERO = "Quat(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))"
Q_I = "Quat(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))"
Q_J = "Quat(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1))"
X_TEXT = f"MPoly(1, {{(1,): {Q_ONE}}})"

# (class, field names, field values, another record's values, repr)
CASES = [
    (Isolated, ("a",), (I,), (J,), f"Isolated(a={Q_I})"),
    (Sphere, ("t", "n"), (Fraction(0), Fraction(2)), (Fraction(0), Fraction(3)),
     "Sphere(t=Fraction(0, 1), n=Fraction(2, 1))"),
    (RootSpaceBasis, ("basis", "over"), ((ONE, J), Centralizer.quadratic(I)), ((ONE,), Centralizer.full()),
     f"RootSpaceBasis(basis=({Q_ONE}, {Q_J}), over=Centralizer.quadratic({Q_I}))"),
    (CentralFactorization, ("factors",), ((((1, 0, 1), 2),),), ((((1, 0, 1), 1),),),
     "CentralFactorization(factors=(((1, 0, 1), 2),))"),
    (LeftIdeal, ("gens",), ((X,),), ((X, X),), f"LeftIdeal(gens=({X_TEXT},))"),
    (RabinowitschCertificate, ("N", "cofactors"), (1, ((X,),)), (2, ((X,),)),
     f"RabinowitschCertificate(N=1, cofactors=(({X_TEXT},),))"),
    (NotFoundWithinBounds, ("N", "degbound", "every_power"), (3, 2, True), (3, 1, True),
     "NotFoundWithinBounds(N=3, degbound=2, every_power=True)"),
    (EigenTuple, ("v", "point"), ((ONE, I), CommutingPoint([I])), ((ONE, I), CommutingPoint([J])),
     f"EigenTuple(v=({Q_ONE}, {Q_I}), point=CommutingPoint([{Q_I}]))"),
    (RootNotFound, ("poly", "var_index", "search_exhaustive"), (UPoly([ONE, ZERO, ONE]), 0, True),
     (UPoly([ONE, ZERO, ONE]), 1, True),
     f"RootNotFound(poly=UPoly([{Q_ONE}, {Q_ZERO}, {Q_ONE}]), var_index=0, search_exhaustive=True)"),
    (Report, ("status", "payload", "provenance"), ("ok", {"N": 1}, "test"), ("ok", {"N": 2}, "test"),
     "Report(status='ok', payload={'N': 1}, provenance='test')"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_construction_repr_and_equality(cls, names, values, other, text):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == record
    assert repr(record) == text
    assert record == cls(*values) and not record != cls(*values)
    assert record != cls(*other)
    assert record != values and record != text


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_hash_is_that_of_the_compared_fields(cls, names, values, other, text):
    if cls is Report:  # a dict payload is unhashable
        with pytest.raises(TypeError):
            hash(cls(*values))
        return
    compared = values[:2] if cls is NotFoundWithinBounds else values
    assert hash(cls(*values)) == hash(cls(*values)) == hash(compared)


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_fields_refuse_assignment(cls, names, values, other, text):
    record = cls(*values)
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_copies_are_equal_records(cls, names, values, other, text):
    record = cls(*values)
    duplicate = copy.copy(record)
    assert type(duplicate) is cls and repr(duplicate) == text
    assert all(getattr(duplicate, name) is value for name, value in zip(names, values))


@pytest.mark.parametrize(
    "record",
    [
        Sphere(Fraction(1, 2), Fraction(3)),
        CentralFactorization((((1, 0, 1), 2),)),
        NotFoundWithinBounds(3, 2, every_power=True),
        Report("ok", {"N": 1}, "test"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_of_plain_fields_pickle(record):
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


def test_every_power_takes_no_part_in_equality_or_hash():
    plain = NotFoundWithinBounds(3, 2)
    every = NotFoundWithinBounds(3, 2, every_power=True)
    assert plain.every_power is False and every.every_power is True
    assert plain == every and hash(plain) == hash(every)
    assert repr(plain) == "NotFoundWithinBounds(N=3, degbound=2, every_power=False)"
    assert {plain, every} == {plain}


@pytest.mark.parametrize(
    "gens, message",
    [
        ((), "a left ideal needs at least one generator"),
        ((X, MPoly.variable(0, 2)), "ideal generators live in different rings"),
    ],
    ids=("empty", "mixed-rings"),
)
def test_left_ideal_refusals(gens, message):
    with pytest.raises(InvalidInput) as info:
        LeftIdeal(gens)
    assert str(info.value) == message
    with pytest.raises(InvalidInput):
        LeftIdeal(gens=gens)
