"""The value types are immutable tuples of their fields: a field cannot be
reassigned, and equal values are equal and hash equal.  Those that check
their fields do it in the constructor, so every value is a valid one."""

import copy
import pickle
from fractions import Fraction

import pytest

from surfideals import frobenius
from surfideals.compare import EQUAL, CatalogEntry, ComparisonReport, PrimeSweep, PrimeVerdict
from surfideals.divisors import DivisorLabel, DivisorVector
from surfideals.errors import BadParameters, InvalidModel
from surfideals.multiplier import PairSpec
from surfideals.resolution import ExceptionalCurve, Extra, ResolutionModel, numerical_pullback
from surfideals.toric import MonomialIdeal, hj_resolve

# name -> a function building one value of the type, afresh on each call
BUILDERS = {
    "DivisorLabel": lambda: DivisorLabel("E1"),
    "ExceptionalCurve": lambda: ExceptionalCurve(DivisorLabel("E1"), -2),
    "Extra": lambda: Extra(DivisorLabel("C", "strict-transform"), (1,)),
    "ResolutionModel": lambda: ResolutionModel(
        (ExceptionalCurve(DivisorLabel("E1"), -2),), (), (Extra(DivisorLabel("C", "strict-transform"), (1,)),)
    ),
    "ToricSurfaceModel": lambda: hj_resolve(7, 3),
    "MonomialIdeal": lambda: MonomialIdeal.from_points(hj_resolve(7, 3), [(1, 0), (3, 1)]),
    "PairSpec": lambda: PairSpec(hj_resolve(7, 3), hj_resolve(7, 3).boundary_divisor(), "2/3"),
    "CharPContext": lambda: frobenius.CharPContext(5),
    "TraceMap": lambda: frobenius.TraceMap(1, (1, 1)),
    "TestIdealResult": lambda: frobenius.TestIdealResult(MonomialIdeal(hj_resolve(2, 1), ((0, 0),)), 1),
    "ComparisonReport": lambda: ComparisonReport("cyclic:2/1|z=zero|lam=0", ((0, 0),), (PrimeVerdict(2, EQUAL),), 2),
    "CatalogEntry": lambda: CatalogEntry(3, 1, "boundary", Fraction(1, 2)),
    "PrimeSweep": lambda: PrimeSweep((5, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fields_cannot_be_reassigned_and_equal_values_hash_equal(name):
    first, second = BUILDERS[name](), BUILDERS[name]()
    assert type(first).__name__ == name
    assert first is not second and first == second and hash(first) == hash(second)
    for field in first._fields:
        with pytest.raises(AttributeError):
            setattr(first, field, getattr(second, field))
    assert first == second == pickle.loads(pickle.dumps(first))


def test_a_toric_model_is_its_r_and_a():
    # a model is its (r, a): it compares and hashes as that tuple
    model = hj_resolve(7, 3)
    assert model._fields == ("r", "a") and model == (7, 3) and hash(model) == hash((7, 3))
    assert model.hj == (3, 2, 2) and set(vars(model)) == {"hj"}  # derived values live beside the fields


def test_divisor_labels_sort_by_name_then_kind():
    labels = [DivisorLabel("E2"), DivisorLabel("E1"), DivisorLabel("E1", "boundary"), DivisorLabel("BL", "boundary")]
    expected = [("BL", "boundary"), ("E1", "boundary"), ("E1", "exceptional"), ("E2", "exceptional")]
    assert [(label.name, label.kind) for label in sorted(labels)] == expected
    vector = DivisorVector((label, 1) for label in labels)
    assert [(label.name, label.kind) for label in vector.support] == expected


def test_a_pair_normalises_lambda_and_derives_w():
    model = hj_resolve(7, 3)
    for lam in (1, "1", Fraction(1)):
        pair = PairSpec(model, model.boundary_divisor(), lam)
        assert type(pair.lam) is Fraction and pair == PairSpec(model, model.boundary_divisor())
    pair = PairSpec(model, model.divisor({"BL": 2, "BR": "1/3"}), "3/4")
    assert (pair.w_left, pair.w_right) == (Fraction(3, 2), Fraction(1, 4))
    with pytest.raises(TypeError):
        PairSpec(model, model.boundary_divisor(), 0.5)


E1, E2 = ExceptionalCurve(DivisorLabel("E1"), -2), ExceptionalCurve(DivisorLabel("E2"), -2)
C = DivisorLabel("C", "strict-transform")
MODEL = hj_resolve(7, 3)

# name -> (fields a `_replace` changes to, the value the constructor builds
# from them, fields the constructor refuses, what `_make` is given that the
# constructor refuses, the error)
CHECKED = {
    "DivisorLabel": ({"kind": "boundary"}, DivisorLabel("E1", "boundary"), {"kind": "bogus"}, ("E1", "bogus"), ValueError),
    "ExceptionalCurve": ({"genus": 1}, ExceptionalCurve(DivisorLabel("E1"), -2, 1), {"self_intersection": 0},
                         (DivisorLabel("BL", "boundary"), 5, -1), InvalidModel),
    "Extra": ({"meets": (2,)}, Extra(C, (2,)), {"meets": (-1,)}, (DivisorLabel("E1"), (1,)), InvalidModel),
    "ResolutionModel": ({"curves": (E1, E2), "edges": ((0, 1, 1),), "extras": ()}, ResolutionModel((E1, E2), ((0, 1, 1),)),
                        {"curves": (E1, E2), "extras": ()}, ((E1,), ((0, 0, 1),), ()), InvalidModel),
    "ToricSurfaceModel": ({"a": 2}, hj_resolve(7, 2), {"a": 7}, (4, 2), BadParameters),
    "PairSpec": ({"lam": 2}, PairSpec(MODEL, MODEL.boundary_divisor(), 2), {"lam": -1},
                 (MODEL, MODEL.boundary_divisor(), 0.5), (InvalidModel, TypeError)),
    "CharPContext": ({"p": 7}, frobenius.CharPContext(7), {"p": 4}, (9,), InvalidModel),
    "PrimeSweep": ({"primes": (7, 3)}, PrimeSweep((3, 7)), {"primes": (4,)}, ((9,), ()), InvalidModel),
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_replace_and_make_go_through_the_constructor(name):
    # a NamedTuple's _replace and _make build the tuple directly; these
    # types check their fields in __new__, so both must go through it
    changes, expected, refused, fields, error = CHECKED[name]
    value = BUILDERS[name]()
    changed = value._replace(**changes)
    assert changed == expected and tuple(changed) == tuple(expected) and type(changed) is type(expected)
    with pytest.raises(error):
        value._replace(**refused)
    with pytest.raises(error):
        type(value)._make(fields)
    assert type(value)._make(tuple(expected)) == expected


def test_a_replaced_pair_derives_its_w_again():
    # PairSpec(5/2, boundary, 1/2)._replace(lam=2) used to keep lam the int 2
    # and w_left 1/2; w_left and w_right follow from model, z and lam only
    model = hj_resolve(5, 2)
    pair = PairSpec(model, model.boundary_divisor(), "1/2")._replace(lam=2)
    assert type(pair.lam) is Fraction and (pair.lam, pair.w_left, pair.w_right) == (2, 2, 2)
    assert tuple(pair._replace(w_left=Fraction(1), w_right=Fraction(0))) == tuple(pair)
    assert PairSpec._make((model, model.boundary_divisor())) == PairSpec(model, model.boundary_divisor())


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_resolution_model_is_rebuilt_from_its_fields(protocol):
    # the elimination steps live beside the fields: a pickle or a copy holds
    # the fields only, and loading it goes through the constructor again
    model = ResolutionModel((E1, E2), ((0, 1, 1),), (Extra(C, (1, 0)),))
    for other in (pickle.loads(pickle.dumps(model, protocol)), copy.copy(model), copy.deepcopy(model)):
        assert other == model and numerical_pullback(other, {"C": 1}) == numerical_pullback(model, {"C": 1})
    assert b"_steps" not in pickle.dumps(model, protocol)
