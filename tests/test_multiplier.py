import math
import random
from fractions import Fraction

import pytest

from conftest import brute_module_gens
from surfideals.divisors import DivisorVector
from surfideals.errors import InvalidModel
from surfideals.resolution import relative_canonical
from surfideals.multiplier import (
    PairSpec,
    jumping_numbers,
    multiplier_ideal,
    multiplier_m_limiting,
    multiplier_with_boundary,
    numerical_multiplier_divisor,
    numerical_relative_canonical,
)
from surfideals.toric import (
    LEFT,
    RIGHT,
    cartier_index,
    hj_resolve,
    pullback_divisor,
    pushforward_sections,
    to_resolution,
)

SMOOTH = hj_resolve(1, 1)
A1 = hj_resolve(2, 1)
THIRD = hj_resolve(3, 1)


def smooth_pair(b, c, lam):
    return PairSpec(SMOOTH, SMOOTH.divisor({RIGHT: b, LEFT: c}), lam)


def test_klt_models_have_unit_multiplier_ideal():
    for model in (A1, THIRD):
        pair = PairSpec(model, DivisorVector.zero(), Fraction(0))
        assert multiplier_ideal(pair).is_unit()


def test_pair_validation():
    with pytest.raises(InvalidModel):
        PairSpec(A1, A1.divisor({LEFT: "-1"}), Fraction(1))
    with pytest.raises(InvalidModel):
        PairSpec(A1, A1.divisor({"E1": 1}), Fraction(1))
    with pytest.raises(InvalidModel):
        PairSpec(A1, A1.boundary_divisor(), Fraction(-1))


def test_smooth_chart_monomial_formula():
    # J(lambda * div(x^b y^c)) = (x^floor(lambda b) y^floor(lambda c))
    for b in range(5):
        for c in range(5):
            for lam in (Fraction(1, 2), Fraction(2, 3), Fraction(7, 6), Fraction(9, 4)):
                ideal = multiplier_ideal(smooth_pair(b, c, lam))
                expected = ((math.floor(lam * b), math.floor(lam * c)),)
                assert ideal.gens == expected


def test_smooth_chart_formula_against_brute_oracle():
    # independent route: enumerate the lattice module cut out by the bounds
    for b, c, lam in ((2, 3, Fraction(1, 2)), (4, 1, Fraction(5, 6)), (3, 3, Fraction(4, 3))):
        ideal = multiplier_ideal(smooth_pair(b, c, lam))
        bounds = {RIGHT: math.floor(lam * b), LEFT: math.floor(lam * c)}
        assert list(ideal.gens) == brute_module_gens(SMOOTH, bounds)


def test_monotone_in_lambda():
    rng = random.Random(3)
    for model in (A1, THIRD, hj_resolve(7, 3)):
        z = model.boundary_divisor()
        for _ in range(10):
            l1 = Fraction(rng.randint(0, 12), rng.randint(1, 6))
            l2 = l1 + Fraction(rng.randint(0, 8), rng.randint(1, 6))
            bigger = multiplier_ideal(PairSpec(model, z, l1))
            smaller = multiplier_ideal(PairSpec(model, z, l2))
            assert smaller.issubset(bigger)


def test_m_limiting_stabilizes_at_cartier_index():
    for model in (A1, THIRD, hj_resolve(5, 2), hj_resolve(12, 7)):
        index = cartier_index(model)
        for z, lam in ((DivisorVector.zero(), Fraction(0)), (model.boundary_divisor(), Fraction(1, 2))):
            pair = PairSpec(model, z, lam)
            full = multiplier_ideal(pair)
            for k in (1, 2, 3):
                assert multiplier_m_limiting(pair, k * index) == full
            for m in range(1, 13):
                assert multiplier_m_limiting(pair, m).issubset(full)


def test_m_limiting_strict_for_one_third():
    pair = PairSpec(THIRD, DivisorVector.zero(), Fraction(0))
    j1 = multiplier_m_limiting(pair, 1)
    j3 = multiplier_m_limiting(pair, 3)
    assert j3.is_unit()
    assert j1.issubset(j3)
    assert j1 != j3
    # K_{1,Y/X} = -E turns J_1 into the monoid's maximal ideal
    assert j1.gens == ((1, 0), (1, 1), (1, 2), (1, 3))


def test_smooth_chart_m_limiting_is_trivial():
    pair = smooth_pair(2, 1, Fraction(3, 4))
    for m in range(1, 7):
        assert multiplier_m_limiting(pair, m) == multiplier_ideal(pair)


def test_boundary_zero_matches_numerical_when_index_one():
    pair = PairSpec(A1, A1.boundary_divisor(), Fraction(1, 2))
    assert multiplier_with_boundary(pair, DivisorVector.zero()) == multiplier_ideal(pair)


def test_boundary_decorated_is_contained_in_numerical():
    # Delta = 2 * (right boundary) makes K + Delta Cartier on 1/3(1,1)
    pair = PairSpec(THIRD, DivisorVector.zero(), Fraction(0))
    delta = THIRD.divisor({RIGHT: 2})
    decorated = multiplier_with_boundary(pair, delta)
    assert decorated.issubset(multiplier_ideal(pair))
    assert decorated.gens == ((1, 0), (1, 1))


def test_boundary_decorated_smooth_example():
    pair = PairSpec(SMOOTH, SMOOTH.divisor({LEFT: "1/2"}), 1)
    delta = SMOOTH.divisor({RIGHT: "1/2"})
    assert multiplier_with_boundary(pair, delta).is_unit()


def test_boundary_sampling_never_exceeds_numerical():
    rng = random.Random(8)
    for model in (A1, THIRD, hj_resolve(9, 2)):
        pair = PairSpec(model, model.boundary_divisor(), Fraction(2, 3))
        full = multiplier_ideal(pair)
        for _ in range(20):
            delta = model.divisor(
                {
                    LEFT: Fraction(rng.randint(0, 10), rng.randint(1, 6)),
                    RIGHT: Fraction(rng.randint(0, 10), rng.randint(1, 6)),
                }
            )
            assert multiplier_with_boundary(pair, delta).issubset(full)


def test_jumping_numbers_smooth_divisor():
    pair = PairSpec(SMOOTH, SMOOTH.divisor({RIGHT: 1}), 1)
    jumps = jumping_numbers(pair, 2)
    assert [(t, ideal.gens) for t, ideal in jumps] == [
        (Fraction(1), ((1, 0),)),
        (Fraction(2), ((2, 0),)),
    ]


def test_jumping_numbers_double_divisor():
    pair = PairSpec(SMOOTH, SMOOTH.divisor({RIGHT: 2}), 1)
    jumps = jumping_numbers(pair, 1)
    assert [(t, ideal.gens) for t, ideal in jumps] == [
        (Fraction(1, 2), ((1, 0),)),
        (Fraction(1), ((2, 0),)),
    ]


def test_jumping_numbers_empty_for_zero_z():
    pair = PairSpec(THIRD, DivisorVector.zero(), Fraction(1))
    assert jumping_numbers(pair, 2) == []


def test_jumping_numbers_on_quotient_boundary():
    pair = PairSpec(THIRD, THIRD.boundary_divisor(), 1)
    jumps = jumping_numbers(pair, 1)
    assert jumps, "the boundary pair must jump by lambda = 1"
    # every reported jump actually changes the ideal at that exact value
    eps_check = multiplier_ideal(PairSpec(THIRD, THIRD.boundary_divisor(), Fraction(0)))
    for t, ideal in jumps:
        assert ideal == multiplier_ideal(PairSpec(THIRD, THIRD.boundary_divisor(), t))
        assert ideal != eps_check
        eps_check = ideal


def test_divisor_level_output_for_bare_resolution():
    res = to_resolution(THIRD)
    d = numerical_multiplier_divisor(res, {}, 0)
    assert d == DivisorVector.zero()  # ceil(-1/3) = 0
    knum = numerical_relative_canonical(THIRD)
    assert knum.coeff(THIRD.label("E1")) == Fraction(-1, 3)


def _models(r_max):
    return [SMOOTH] + [hj_resolve(r, a) for r in range(2, r_max + 1) for a in range(1, r) if math.gcd(r, a) == 1]


LONG_CHAINS = [hj_resolve(64, 63), hj_resolve(101, 100), hj_resolve(97, 2)]


def _divisor_route(model, knum, w):
    """J(X, W) from its definition: sections of ceil(K^num - pi^* W), with
    a bound on every exceptional ray."""
    return pushforward_sections(model, (knum - pullback_divisor(model, w)).ceil())


def test_multiplier_ideal_against_the_divisor_route():
    # the corner module O_X(-floor W) equals sections of ceil(K^num - pi^* W)
    # with K^num solved through the intersection matrix and every exceptional
    # bound scanned, long chains included; the denominators are <= 12, and 1
    # for one W of each model, where the round-up of an integer coefficient
    # is tested
    rng = random.Random(91)
    for model in _models(30) + LONG_CHAINS:
        knum = relative_canonical(to_resolution(model))
        for den_max in (12, 12, 12, 1):
            w = model.divisor({LEFT: Fraction(rng.randint(0, 3 * den_max), rng.randint(1, den_max)),
                               RIGHT: Fraction(rng.randint(0, 3 * den_max), rng.randint(1, den_max))})
            assert multiplier_ideal(PairSpec(model, w, 1)) == _divisor_route(model, knum, w), (model, w)


def _all_rays_jumps(pair, knum, lam_max):
    """Jumping numbers by the scan over every ray: the t in (0, lam_max]
    where a coefficient of K^num - t pi^* Z crosses an integer, kept where
    the multiplier ideal changes."""
    model = pair.model
    candidates = set()
    for label, zv in pullback_divisor(model, pair.z).items():
        if zv > 0:
            kv = knum.coeff(label)
            candidates.update((kv - n) / zv for n in range(math.ceil(kv - lam_max * zv), math.floor(kv) + 1))
    jumps, previous = [], multiplier_ideal(PairSpec(model, pair.z, 0))
    for t in sorted(c for c in candidates if 0 < c <= lam_max):
        current = multiplier_ideal(PairSpec(model, pair.z, t))
        if current != previous:
            jumps.append((t, current))
            previous = current
    return jumps


def test_jumping_numbers_against_the_all_rays_scan():
    # the boundary-ray candidates find every jump that the scan over all
    # rays finds, and each ideal is the one from the definition of J
    rng = random.Random(29)
    for model in rng.sample(_models(30), 80):
        z = model.divisor({LEFT: Fraction(rng.randint(0, 12), rng.randint(1, 4)),
                           RIGHT: Fraction(rng.randint(0, 12), rng.randint(1, 4))})
        pair, lam_max = PairSpec(model, z, 1), Fraction(rng.randint(1, 12), rng.randint(1, 4))
        knum = relative_canonical(to_resolution(model))
        jumps = jumping_numbers(pair, lam_max)
        assert jumps == _all_rays_jumps(pair, knum, lam_max), (model, z, lam_max)
        assert all(ideal == _divisor_route(model, knum, z.scale(t)) for t, ideal in jumps), (model, z)


def test_numerical_relative_canonical_against_the_intersection_matrix():
    # 203/101 is the chain [3, 2, ..., 2] of 101 curves
    for model in _models(40) + [hj_resolve(101, 100), hj_resolve(97, 2), hj_resolve(203, 101)]:
        assert numerical_relative_canonical(model) == relative_canonical(to_resolution(model)), model
