import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfideals.divisors import DivisorLabel, DivisorVector, floor_inequality_check, rat

E = DivisorLabel("E", "exceptional")
E1 = DivisorLabel("E1", "exceptional")
E2 = DivisorLabel("E2", "exceptional")
C = DivisorLabel("C", "strict-transform")


def dv(*pairs):
    return DivisorVector(list(pairs))


def test_rat_accepts_exact_inputs_only():
    assert rat("2/3") == Fraction(2, 3)
    assert rat(-4) == Fraction(-4)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_label_kind_checked():
    with pytest.raises(ValueError):
        DivisorLabel("X", "fancy")


def test_zero_coefficients_are_normalized_away():
    d = dv((E1, Fraction(1, 2)), (E2, 0))
    assert d.support == (E1,)
    assert d == dv((E1, "1/2"))
    assert hash(d) == hash(dv((E1, Fraction(1, 2))))
    assert (d - d).is_zero()


def test_ceil_of_small_negative_is_zero():
    assert dv((E, Fraction(-1, 3))).ceil() == DivisorVector.zero()


def test_floor_componentwise():
    d = dv((E1, Fraction(3, 2)), (E2, Fraction(-3, 2)))
    assert d.floor() == dv((E1, 1), (E2, -2))


def test_rounding_fixes_integral_vectors():
    d = dv((E1, 2), (E2, -7))
    assert d.ceil() == d
    assert d.floor() == d


def test_floor_lemma_worked_examples():
    assert floor_inequality_check(dv((E, Fraction(1, 2))), 2)
    assert floor_inequality_check(dv((E, Fraction(-1, 2))), 2)
    # the two sides from the worked computation
    d = dv((E, Fraction(1, 2)))
    lhs = -(d.floor()) + ((1 - 2) * d).floor()
    assert lhs == dv((E, -1))
    assert (-2) * d.floor() == DivisorVector.zero()


def test_floor_lemma_rejects_small_q():
    with pytest.raises(ValueError):
        floor_inequality_check(dv((E, 1)), 1)


rationals = st.fractions(max_denominator=64).filter(lambda f: abs(f) <= 50)


@given(st.lists(rationals, min_size=1, max_size=4), st.sampled_from([2, 3, 4, 5, 8, 9]))
def test_floor_lemma_property(coeffs, q):
    labels = [DivisorLabel(f"E{i}") for i in range(len(coeffs))]
    assert floor_inequality_check(DivisorVector(zip(labels, coeffs)), q)


@given(st.lists(rationals, min_size=1, max_size=4))
def test_ceil_is_negated_floor_of_negation(coeffs):
    labels = [DivisorLabel(f"E{i}") for i in range(len(coeffs))]
    d = DivisorVector(zip(labels, coeffs))
    assert d.ceil() == -((-d).floor())
    gap_up = d.ceil() - d
    gap_down = d - d.floor()
    zero = DivisorVector.zero()
    for gap in (gap_up, gap_down):
        assert zero <= gap
        assert all(c < 1 for _, c in gap.items())


def test_rounding_commutes_with_relabeling():
    rng = random.Random(7)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)]
        before = DivisorVector(zip((E1, E2, C), coeffs)).floor()
        swapped = DivisorVector(zip((E2, E1, C), coeffs)).floor()
        assert {l.name for l, _ in before.items()} <= {"E1", "E2", "C"}
        assert before.coeff(E1) == swapped.coeff(E2)
        assert before.coeff(E2) == swapped.coeff(E1)


def test_partial_order_and_effectivity():
    assert dv((E1, 1)) <= dv((E1, 2), (E2, 1))
    assert not dv((E1, 1), (E2, 1)) <= dv((E1, 2))
    assert dv((E1, "1/3"), (C, 2)).is_effective()
    assert not dv((E1, "-1/3")).is_effective()


def test_greater_or_equal_is_the_reflected_partial_order():
    comparable = (dv((E1, 2), (E2, 1)), dv((E1, 1)))
    incomparable = (dv((E1, 1), (E2, 1)), dv((E1, 2)))
    for a, b in (comparable, comparable[::-1], incomparable, incomparable[::-1]):
        assert (a >= b) == (b <= a)
    assert comparable[0] >= comparable[1] and not comparable[1] >= comparable[0]
    assert not incomparable[0] >= incomparable[1] and not incomparable[1] >= incomparable[0]
    assert dv((C, "1/2")) >= dv((C, "1/2"))
