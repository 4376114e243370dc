import math
import random
from fractions import Fraction

import pytest

from conftest import brute_ideal_points, brute_module_gens, dense, determinant
from surfideals import toric
from surfideals.divisors import DivisorLabel, DivisorVector
from surfideals.errors import BadParameters, EnumerationLimitExceeded, InvalidModel, NotIntegral
from surfideals.resolution import discrepancies, numerical_pullback, relative_canonical
from surfideals.toric import (
    LEFT,
    RIGHT,
    MonomialIdeal,
    cartier_index,
    dot,
    hj_resolve,
    m_limiting_relative_canonical,
    negative_continued_fraction,
    pushforward_sections,
    section_module_min_gens,
    to_resolution,
)


def all_models(r_max=12):
    yield hj_resolve(1, 1)
    for r in range(2, r_max + 1):
        for a in range(1, r):
            if math.gcd(r, a) == 1:
                yield hj_resolve(r, a)


def test_continued_fractions():
    assert negative_continued_fraction(2, 1) == (2,)
    assert negative_continued_fraction(3, 1) == (3,)
    assert negative_continued_fraction(3, 2) == (2, 2)
    assert negative_continued_fraction(12, 5) == (3, 2, 3)
    assert negative_continued_fraction(7, 4) == (2, 4)
    # identity: the expansion reassembles to r/a
    for r in range(2, 30):
        for a in range(1, r):
            if math.gcd(r, a) != 1:
                continue
            value = Fraction(0)
            for b in reversed(negative_continued_fraction(r, a)):
                value = Fraction(b) - (Fraction(1) / value if value else 0)
            assert value == Fraction(r, a)


def test_hj_resolve_parameters():
    with pytest.raises(BadParameters):
        hj_resolve(4, 2)
    with pytest.raises(BadParameters):
        hj_resolve(3, 3)
    with pytest.raises(BadParameters):
        hj_resolve(1, 0)


@pytest.mark.parametrize(
    "r,a,message",
    [
        (4, 2, "need gcd(r, a) = 1 and 1 <= a < r, got r=4, a=2"),
        (0, 1, "need gcd(r, a) = 1 and 1 <= a < r, got r=0, a=1"),
        (1, 2, "the smooth chart is addressed as (r, a) = (1, 1)"),
        (3, 3, "need gcd(r, a) = 1 and 1 <= a < r, got r=3, a=3"),
        ("5", 2, "r and a must be integers"),
        (3, True, "r and a must be integers"),
        (True, 1, "r and a must be integers"),
    ],
)
def test_toric_model_refuses_bad_parameters_at_construction(r, a, message):
    # the model holds its own invariant: a bad (r, a) never builds, so it
    # cannot fail later at first use (a ZeroDivisionError in v_right for r = 0)
    with pytest.raises(BadParameters) as exc:
        toric.ToricSurfaceModel(r, a)
    assert str(exc.value) == message


def test_convention_oracle_one_third():
    # 1/3(1,1) must resolve to a single -3 curve with discrepancy -1/3
    model = hj_resolve(3, 1)
    assert model.hj == (3,)
    assert discrepancies(to_resolution(model)) == {"E1": Fraction(-1, 3)}


def test_convention_oracle_du_val_chains():
    # 1/r(1, r-1) must be the A_{r-1} chain of -2 curves, all discrepancies 0
    for r in range(2, 13):
        model = hj_resolve(r, r - 1)
        assert model.hj == tuple([2] * (r - 1))
        assert relative_canonical(to_resolution(model)) == DivisorVector.zero()


def test_single_curve_cases():
    assert hj_resolve(2, 1).hj == (2,)
    assert hj_resolve(4, 1).hj == (4,)


def test_fan_geometry_invariants():
    """A model is its (r, a), and its ray recursion closes the cone at
    v_right = (r, -(a mod r)) in unimodular steps."""
    for model in all_models(60):
        assert model._fields == ("r", "a") and tuple(model) == (model.r, model.a)
        twin = hj_resolve(model.r, model.a)
        assert twin is not model and twin == model and hash(twin) == hash(model)
        rays = [vec for _, vec in model.rays()]
        assert rays[0] == model.v_left == (0, 1)
        assert rays[-1] == model.v_right == (model.r, -(model.a % model.r))
        for u, v in zip(rays, rays[1:]):
            assert u[0] * v[1] - u[1] * v[0] == -1  # consecutive rays unimodular
        for i in range(1, len(rays) - 1):
            b = model.hj[i - 1]
            assert (rays[i - 1][0] + rays[i + 1][0], rays[i - 1][1] + rays[i + 1][1]) == (
                b * rays[i][0],
                b * rays[i][1],
            )
        for vec in rays[1:-1]:
            assert math.gcd(vec[0], vec[1]) == 1


def test_exceptional_rays_pair_positively_with_both_boundary_rays():
    """Every exceptional ray u = (A v_left + B v_right) / |det| has A, B > 0,
    which the section scan assumes without a check.

    Proof: the chain u_0 = v_left, u_1 = (1, 0), ..., u_{s+1} = v_right has
    u_{i+1} = b_i u_i - u_{i-1} with every b_i >= 2, so eps = det(u_{i-1}, u_i)
    is the same for every i.  Put d_i = eps det(v_left, u_i).  Then d_0 = 0,
    d_1 = 1 and, by induction, d_{i+1} - d_i = (b_i - 1) d_i - d_{i-1} >=
    d_i - d_{i-1} >= 1, so d_i > 0 for i >= 1.  As det = eps d_{s+1}, eps is
    the sign of det and B = sign(det) det(v_left, u_i) = d_i > 0.  The same
    argument from the right end, with det(u_i, v_right), gives A > 0.
    """
    chains = [hj_resolve(1009, 1008), hj_resolve(10007, 2)]
    for model in [*all_models(60), *chains]:
        (l0, l1), (r0, r1) = model.v_left, model.v_right
        sign = -1  # the sign of det(v_left, v_right) = -r
        for u0, u1 in model.exceptional_rays:
            assert sign * (u0 * r1 - u1 * r0) > 0 and sign * (l0 * u1 - l1 * u0) > 0, (model, (u0, u1))


def test_chain_determinant_is_class_group_order():
    for model in all_models():
        res = to_resolution(model)
        neg = [[-x for x in row] for row in dense(res.diagonal, res.edges)]
        assert determinant(neg) == model.r


def test_monomial_valuations():
    smooth = hj_resolve(1, 1)
    assert dot((1, 0), smooth.ray(RIGHT)) == 1
    assert dot((1, 0), smooth.ray(LEFT)) == 0
    a1 = hj_resolve(2, 1)
    for u in ((1, 0), (1, 2)):  # the two extreme monoid generators of the A_1 chart
        assert dot(u, a1.ray("E1")) == 1
        assert dot((0, 0), a1.ray("E1")) == 0


def test_section_module_against_brute_force():
    rng = random.Random(5)
    models = [hj_resolve(1, 1), hj_resolve(2, 1), hj_resolve(3, 1), hj_resolve(5, 2), hj_resolve(5, 3)]
    # a chain of six -2 curves, and a single -7 curve
    models += [hj_resolve(7, 6), hj_resolve(7, 1)]
    for model in models:
        names = [label.name for label, _ in model.rays()]
        for _ in range(25):
            bounds = {LEFT: rng.randint(-4, 4), RIGHT: rng.randint(-4, 4)}
            for name in names[1:-1]:
                if rng.random() < 0.6:
                    bounds[name] = rng.randint(-4, 4)
            gens = section_module_min_gens(model, bounds)
            assert list(gens) == brute_module_gens(model, bounds)


def test_section_scan_cap_counts_the_s_values_visited(monkeypatch):
    # ENUMERATION_LIMIT caps the s values one scan visits, not |det| past the
    # last binding bound: a scan that stops at its first s passes a cap of 1
    model = hj_resolve(7, 3)
    bounds = {LEFT: 0, RIGHT: 5}
    expected = section_module_min_gens(model, bounds)
    outcomes = []
    for limit in range(1, 9):
        monkeypatch.setattr(toric, "ENUMERATION_LIMIT", limit)
        assert section_module_min_gens(model, {LEFT: 0, RIGHT: 0}) == ((0, 0),)
        try:
            outcomes.append(section_module_min_gens(model, bounds))
        except EnumerationLimitExceeded:
            outcomes.append(None)
    visited = outcomes.count(None) + 1
    assert 1 < visited <= 7
    assert outcomes == [None] * (visited - 1) + [expected] * (9 - visited)


def test_pushforward_examples():
    a1 = hj_resolve(2, 1)
    assert pushforward_sections(a1, DivisorVector.zero()).is_unit()
    minus_e = a1.divisor({"E1": -1})
    assert pushforward_sections(a1, minus_e).gens == ((1, 0), (1, 1), (1, 2))
    smooth = hj_resolve(1, 1)
    d = smooth.divisor({RIGHT: -2})
    assert pushforward_sections(smooth, d).gens == ((2, 0),)


def test_pushforward_requires_integer_coefficients():
    a1 = hj_resolve(2, 1)
    with pytest.raises(NotIntegral):
        pushforward_sections(a1, a1.divisor({"E1": "1/2"}))


def test_pushforward_names_a_label_that_is_not_a_ray():
    # the ray table is the one check of a label, with the message every command prints
    d = DivisorVector([(DivisorLabel("E2", "exceptional"), -1)])
    with pytest.raises(InvalidModel, match="^model has no ray named 'E2'$"):
        pushforward_sections(hj_resolve(2, 1), d)


def test_pushforward_monotone_in_divisor():
    rng = random.Random(17)
    for model in (hj_resolve(3, 1), hj_resolve(5, 2), hj_resolve(7, 3)):
        names = [label.name for label, _ in model.rays()]
        for _ in range(15):
            d1 = {n: rng.randint(-3, 3) for n in names}
            d2 = {n: d1[n] + rng.randint(0, 3) for n in names}
            i1 = pushforward_sections(model, model.divisor(d1))
            i2 = pushforward_sections(model, model.divisor(d2))
            assert i1.issubset(i2)


def test_cartier_indices():
    assert cartier_index(hj_resolve(1, 1)) == 1
    assert cartier_index(hj_resolve(2, 1)) == 1
    assert cartier_index(hj_resolve(3, 1)) == 3
    for model in all_models():
        # lattice computation matches the closed form r / gcd(r, a+1)
        assert cartier_index(model) == model.r // math.gcd(model.r, model.a + 1)


def test_m_limiting_relative_canonical_examples():
    smooth = hj_resolve(1, 1)
    for m in (1, 2, 5):
        assert m_limiting_relative_canonical(smooth, m) == DivisorVector.zero()
    a1 = hj_resolve(2, 1)
    assert m_limiting_relative_canonical(a1, 2) == DivisorVector.zero()
    third = hj_resolve(3, 1)
    e1 = third.label("E1")
    assert m_limiting_relative_canonical(third, 3) == DivisorVector([(e1, Fraction(-1, 3))])
    assert m_limiting_relative_canonical(third, 1) == DivisorVector([(e1, -1)])
    # K_m has no boundary component
    for m in (1, 2, 3, 6):
        assert all(label.kind == "exceptional" for label in m_limiting_relative_canonical(third, m).support)


def test_m_limiting_relative_canonical_against_brute_force():
    # K_m = -1 - min <u, v> / m on each ray v, with u over the generators of
    # O_X(-m K_X) found by raw search; it is 0 on the boundary rays
    for model in all_models(16):
        for m in range(1, 7):
            gens = brute_module_gens(model, {LEFT: -m, RIGHT: -m})
            assert {min(dot(u, v) for u in gens) for v in (model.v_left, model.v_right)} == {-m}
            expected = DivisorVector(
                (label, -1 - Fraction(min(dot(u, v) for u in gens), m))
                for label, v in zip(model.exceptional_labels, model.exceptional_rays)
            )
            assert m_limiting_relative_canonical(model, m) == expected, (model, m)


def test_m_limiting_never_exceeds_numerical():
    for model in all_models(8):
        knum = relative_canonical(to_resolution(model))
        for m in range(1, 13):
            km = m_limiting_relative_canonical(model, m)
            assert km <= knum
            if m % cartier_index(model) == 0:
                assert km == knum


def test_numerical_pullback_agrees_with_support_function():
    # cross-check: intersection-matrix solve vs lattice support function
    from surfideals.toric import pullback_divisor

    rng = random.Random(23)
    chains = [hj_resolve(64, 63), hj_resolve(101, 100), hj_resolve(97, 2)]
    for model in [*all_models(40), *chains]:
        if model.r == 1:
            continue
        res = to_resolution(model)
        for _ in range(5):
            zl = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            zr = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            z = model.divisor({LEFT: zl, RIGHT: zr})
            lattice = pullback_divisor(model, z)
            numerical = numerical_pullback(res, {LEFT: zl, RIGHT: zr})
            assert lattice == numerical


def test_intersection_numbers_off_the_fan_against_the_matrix():
    # the wall relation v_{j-1} + v_{j+1} = b_j v_j against the intersection
    # matrix and extras of to_resolution, with every ray label in play
    rng = random.Random(29)
    for model in all_models(30):
        res = to_resolution(model)
        labels = [label for label, _ in model.rays()]
        for _ in range(3):
            d = DivisorVector(
                (label, Fraction(rng.randint(-9, 9), rng.randint(1, 6))) for label in labels if rng.random() < 0.7
            )
            assert model.intersect_with_curves(d) == res.intersect_with_curves(d)
    with pytest.raises(InvalidModel):
        hj_resolve(5, 2).intersect_with_curves(DivisorVector([(hj_resolve(7, 3).label("E3"), 1)]))


def test_monomial_ideal_antichain_and_order():
    model = hj_resolve(2, 1)
    ideal = MonomialIdeal.from_points(model, [(2, 2), (1, 1), (1, 0), (3, 0)])
    assert ideal.gens == ((1, 0), (1, 1))
    assert ideal.contains_point((2, 2))
    assert not ideal.contains_point((0, 0))
    assert MonomialIdeal(model, ((0, 0),)).is_unit()


def test_monomial_ideal_sum_and_intersection_against_brute_force():
    rng = random.Random(31)
    box = [(u1, u2) for u1 in range(-6, 7) for u2 in range(-6, 7)]
    for model in (hj_resolve(2, 1), hj_resolve(5, 3), hj_resolve(1, 1), hj_resolve(7, 3), hj_resolve(12, 5)):
        monoid = sorted(brute_ideal_points(model, [(0, 0)], box=6))
        for _ in range(10):
            g1 = rng.sample(monoid, 3)
            g2 = rng.sample(monoid, 3)
            i1 = MonomialIdeal.from_points(model, g1)
            i2 = MonomialIdeal.from_points(model, g2)
            union = brute_ideal_points(model, g1, box=6) | brute_ideal_points(model, g2, box=6)
            meet = brute_ideal_points(model, g1, box=6) & brute_ideal_points(model, g2, box=6)
            s = i1.sum(i2)
            m = i1.intersect(i2)
            assert {p for p in union} == {p for p in brute_ideal_points(model, s.gens, box=6)}
            assert {p for p in meet} == {p for p in brute_ideal_points(model, m.gens, box=6)}
            assert {u for u in box if i1.contains_point(u)} == brute_ideal_points(model, g1, box=6)
            assert i1.intersect(i2).issubset(i1)
            assert i1.issubset(i1.sum(i2))


def test_equal_models_hash_equal_and_give_equal_staircases():
    # the hash reads (r, a) only, and a staircase depends on the model only
    # through (r, a): separately built equal models give equal staircases
    first, second = hj_resolve(1009, 1008), hj_resolve(1009, 1008)
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != hj_resolve(1009, 2)
    assert toric.corner_stairs(first, 3, 5) == toric.corner_stairs(second, 3, 5)
    bounds = {LEFT: 1, RIGHT: 2, "E7": 4}
    assert section_module_min_gens(first, bounds) == section_module_min_gens(second, bounds)
