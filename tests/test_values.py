"""Every kernel value, and every record holding one, crosses `copy`,
`copy.deepcopy` and `pickle` at every protocol as an equal value of the
same type with the same hash, still immutable; equal values hash equal,
a central quaternion and its rational included."""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest

from quatca.modules import EigenTuple, ModulePresentation, RootNotFound
from quatca.mpoly import CommutingPoint, MPoly, RabinowitschCertificate
from quatca.randgen import rand_module
from quatca.scalars import Centralizer, I, J, K, ONE, Quat, ZERO
from quatca.upoly import Isolated, RootSpaceBasis, UPoly

X = MPoly.variable(0, 2)

VALUES = [
    Quat(1, Fraction(-1, 2), 3, Fraction(4, 3)),
    Centralizer.quadratic(Quat(0, 2, 0, -4)),
    UPoly([ONE, I, Quat(0, Fraction(1, 3), 1)]),
    MPoly(2, {(1, 0): I, (0, 2): Quat(1, 0, Fraction(2, 5)), (0, 0): ONE}),
    CommutingPoint([I, Quat(1, 2)]),
    rand_module(Random(3), 2, 3)[0],
    Isolated(I),
    RootNotFound(UPoly([ONE, ZERO, ONE]), 0, True),
    EigenTuple((ONE, J), CommutingPoint([I, Quat(2, 3)])),
    RabinowitschCertificate(1, ((X, X * X), (MPoly.constant(K, 2), X))),
    RootSpaceBasis((ONE, J), Centralizer.quadratic(I)),
]
COPIES = [
    ("copy", copy.copy),
    ("deepcopy", copy.deepcopy),
    *((f"pickle protocol {protocol}", lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol)))
      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_copies_are_equal_immutable_values(value):
    for how, duplicate in COPIES:
        twin = duplicate(value)
        assert type(twin) is type(value), how
        assert twin == value and not twin != value, how
        assert hash(twin) == hash(value), how
        assert repr(twin) == repr(value), how
        for name in (*type(value).__slots__, "other"):
            with pytest.raises(AttributeError) as info:
                setattr(twin, name, None)
            assert str(info.value) == f"{type(value).__name__} is immutable"


def test_a_copied_module_acts_as_the_original():
    module = VALUES[5]
    twin = copy.deepcopy(module)
    v = (ONE, I, Quat(1, 2, 3))
    assert all(twin.act(i, v) == module.act(i, v) for i in range(module.nvars))


def test_equal_modules_hash_equal():
    mats = [[[I, ZERO], [ZERO, J]]]
    one, other = ModulePresentation(2, mats), ModulePresentation(2, mats)
    assert one == other and hash(one) == hash(other)
    assert len({one, other, ModulePresentation(2, [[[I, ZERO], [ZERO, I]]])}) == 2


@pytest.mark.parametrize(
    "rational",
    [0, 1, -7, 2**70, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 2**70)],
    ids=str,
)
def test_a_central_quaternion_hashes_as_its_rational(rational):
    q = Quat(rational)
    assert q == rational and hash(q) == hash(rational)
    assert len({q, rational, Quat.scalar(rational)}) == 1
    assert {rational: "r"}.get(q) == "r"
