"""The value types compare, hash, print and copy by their fields and are frozen.

Each case is a type, its field names, one set of field values and the index
and new value of one changed field.
"""
from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction as F

import numpy as np
import pytest

from cantor_measures import (
    CdfTable,
    DecayReport,
    LipschitzCheck,
    MomentSequence,
    OrthoBasis,
    WeightVector,
)
from cantor_measures._frozen import Frozen
from cantor_measures.fast import FastResult, MgfValue
from cantor_measures.legendre import BasisExport

TERNARY = WeightVector((F(1, 2), F(0), F(1, 2)))
BASIS = OrthoBasis(((F(1),), (F(-1, 2), F(1))), (F(1), F(1, 4)))

CASES = [
    (WeightVector, ("weights",), (TERNARY.weights,), 0, (F(1, 3),) * 3),
    (CdfTable, ("depth", "n_base", "numerators", "denominator"),
     (1, 2, (0, 1, 2), 2), 3, 3),
    (MomentSequence, ("weights", "kind", "values"),
     (TERNARY, "raw", (F(1), F(1, 2))), 1, "shifted"),
    (DecayReport, ("regime", "gamma", "witness_constant", "max_m_checked", "violations"),
     ("exponential", math.inf, 0.5, 4, ()), 4, (3,)),
    (OrthoBasis, ("polys", "norms_sq"), (BASIS.polys, BASIS.norms_sq), 1, (F(1), F(1, 8))),
    (BasisExport, ("basis", "n_points"), (BASIS, 201), 1, 5),
    (MgfValue, ("s", "depth", "value"), (1.5, 30, 2.0), 1, 31),
]

IDS = [case[0].__name__ for case in CASES]


class Tagged(Frozen):
    """A value type with one field and one private slot."""

    __slots__ = ("value", "_note")

    def __init__(self, value: object, note: object = None) -> None:
        object.__setattr__(self, "value", value)
        if note is not None:
            object.__setattr__(self, "_note", note)


@pytest.mark.parametrize("cls,fields,args,index,changed", CASES, ids=IDS)
class TestValueTypes:
    def test_equal_fields_equal_hashes(self, cls, fields, args, index, changed):
        a, b = cls(*args), cls(*args)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_changed_field_unequal(self, cls, fields, args, index, changed):
        other = list(args)
        other[index] = changed
        assert cls(*args) != cls(*other)

    def test_only_same_type_equal(self, cls, fields, args, index, changed):
        assert cls(*args) != tuple(args)
        assert cls(*args).__eq__(object()) is NotImplemented

    def test_repr_names_the_type(self, cls, fields, args, index, changed):
        assert repr(cls(*args)).startswith(f"{cls.__name__}(")

    def test_frozen(self, cls, fields, args, index, changed):
        value = cls(*args)
        for name in (*fields, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(value, name, changed)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(*args)

    def test_positional_and_keyword_agree(self, cls, fields, args, index, changed):
        value = cls(**dict(zip(fields, args)))
        assert value == cls(*args)
        assert all(getattr(value, name) == arg for name, arg in zip(fields, args))

    def test_copies_equal(self, cls, fields, args, index, changed):
        value = cls(*args)
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


class TestIdentityAndTuple:
    def test_fast_result_equals_only_itself(self):
        a = FastResult(np.zeros(3), 1, np.zeros(3))
        b = FastResult(np.zeros(3), 1, np.zeros(3))
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert repr(a).startswith("FastResult(")
        with pytest.raises(AttributeError):
            a.depth_used = 2

    def test_lipschitz_check_is_a_tuple(self):
        check = LipschitzCheck(F(0), F(0), True)
        assert check == (0, 0, True)
        assert isinstance(check, tuple)
        assert (check.distance, check.bound, check.ok) == (0, 0, True)
        assert LipschitzCheck(distance=F(0), bound=F(0), ok=True) == check


class TestPrivateSlots:
    def test_only_public_fields_count(self):
        a, b, bare = Tagged(1, "a"), Tagged(1, "b"), Tagged(1)
        assert a == b == bare and a != Tagged(2, "a")
        assert hash(a) == hash(b) == hash(bare)
        assert repr(a) == repr(bare) == "Tagged(value=1)"
        assert a._fields() == (1,)

    def test_copies_leave_the_private_slot_unset(self):
        a = Tagged(1, "a")
        for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert copied == a and hash(copied) == hash(a)
            assert not hasattr(copied, "_note")

    def test_private_slot_is_frozen(self):
        a = Tagged(1, "a")
        with pytest.raises(AttributeError):
            a._note = "b"
        with pytest.raises(AttributeError):
            del a._note
        assert a._note == "a"
