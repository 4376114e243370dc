import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import dense, reached_from_first
from test_acceptance import _random_negative_definite
from surfideals.divisors import DivisorLabel, DivisorVector
from surfideals.linalg import solve
from surfideals.errors import DisconnectedDualGraph, InvalidModel, NonEffectiveGamma, NotNegativeDefinite
from surfideals.multiplier import numerical_multiplier_divisor
from surfideals.resolution import (
    ExceptionalCurve,
    Extra,
    ResolutionModel,
    discrepancies,
    negativity_check,
    numerical_pullback,
    pair_inequality_check,
    relative_canonical,
)

E = DivisorLabel("E", "exceptional")
C = DivisorLabel("C", "strict-transform")


def single_curve_model(self_int, genus=0, meets=(1,)):
    return ResolutionModel((ExceptionalCurve(E, self_int, genus),), (), (Extra(C, meets),))


def chain_model(*self_ints):
    curves = tuple(ExceptionalCurve(DivisorLabel(f"E{i+1}"), s) for i, s in enumerate(self_ints))
    return ResolutionModel(curves, tuple((i, i + 1, 1) for i in range(len(self_ints) - 1)))


TWO = (ExceptionalCurve(DivisorLabel("E1"), -2), ExceptionalCurve(DivisorLabel("E2"), -2))


@pytest.mark.parametrize(
    "edges,message",
    [
        (((0, 0, 1),), "edge (0, 0) needs two distinct curve indices below 2"),
        (((0, 2, 1),), "edge (0, 2) needs two distinct curve indices below 2"),
        (((-1, 1, 1),), "edge (-1, 1) needs two distinct curve indices below 2"),
        (((0, 1, 1), (1, 0, 1)), "edge (1, 0) repeats a pair of curves"),
        (((0, 1, -1),), "off-diagonal intersection numbers must be >= 0"),
    ],
)
def test_validation_rejects_bad_edges(edges, message):
    # a model file's indices are checked by the CLI first; direct construction
    # is checked here, so no edge can index past the curve list
    with pytest.raises(InvalidModel) as exc:
        ResolutionModel(TWO, edges)
    assert str(exc.value) == message


def test_a_disconnected_dual_graph_is_refused():
    # the exceptional set over one normal point is connected (Zariski's main
    # theorem): two unlinked -2 curves would give discrepancies 0 and 0.  An
    # edge of intersection 0 links nothing, and the first curve out of reach
    # is named; a graph that is not negative definite says so first
    message = "curves[{}] ('E{}') is not connected to curves[0] through the intersections; the dual graph must be connected"
    four = tuple(ExceptionalCurve(DivisorLabel(f"E{i}"), -2) for i in range(1, 5))
    for curves, edges, k in ((TWO, (), 1), (TWO, ((0, 1, 0),), 1), (four, ((0, 1, 0), (3, 0, 1), (1, 2, 1)), 1),
                             (four, ((0, 1, 1), (1, 2, 1)), 3)):
        with pytest.raises(DisconnectedDualGraph) as exc:
            ResolutionModel(curves, edges)
        assert isinstance(exc.value, InvalidModel) and str(exc.value) == message.format(k, k + 1)
    assert ResolutionModel(four, ((0, 1, 1), (1, 2, 1), (2, 3, 1))).edges == ((0, 1, 1), (1, 2, 1), (2, 3, 1))
    assert ResolutionModel((), ()).curves == ()  # a smooth point: no exceptional curve
    with pytest.raises(NotNegativeDefinite):
        ResolutionModel(
            (ExceptionalCurve(DivisorLabel("E1"), -1), ExceptionalCurve(DivisorLabel("E2"), -1), ExceptionalCurve(DivisorLabel("E3"), -2)),
            ((0, 1, 2),),
        )


def test_connectivity_against_a_graph_search():
    # the model labels components off its elimination steps; the oracle
    # searches the graph.  Some graphs have cycles (so fill edges), some an
    # edge of intersection 0, some a curve that meets no other, and the
    # diagonal dominates each row, so every matrix is negative definite
    message = "curves[{}] ('E{}') is not connected to curves[0] through the intersections; the dual graph must be connected"
    rng, kinds = random.Random(27), Counter()
    for _ in range(300):
        n = rng.randint(1, 9)
        density = rng.choice((0.2, 0.4, 0.7))
        edges = [(i, j, rng.choice((0, 1, 1, 2))) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        edges = [(j, i, m) if rng.random() < 0.5 else (i, j, m) for i, j, m in rng.sample(edges, len(edges))]
        weight = Counter()
        for i, j, m in edges:
            weight[i] += m
            weight[j] += m
        curves = tuple(ExceptionalCurve(DivisorLabel(f"E{i + 1}"), -weight[i] - rng.randint(1, 3)) for i in range(n))
        missed = set(range(n)) - reached_from_first(n, edges)
        kinds.update({"disconnected": bool(missed), "connected": not missed, "cycle": sum(m > 0 for *_, m in edges) >= n,
                      "zero edge": any(m == 0 for *_, m in edges), "isolated curve": n > 1 and any(weight[i] == 0 for i in range(n))})
        if missed:
            with pytest.raises(DisconnectedDualGraph) as exc:
                ResolutionModel(curves, tuple(edges))
            assert str(exc.value) == message.format(min(missed), min(missed) + 1)
        else:
            assert ResolutionModel(curves, tuple(edges)).curves == curves
    assert min(kinds.values()) >= 40, kinds


def test_validation_rejects_bad_matrices():
    with pytest.raises(NotNegativeDefinite):
        ResolutionModel(
            (ExceptionalCurve(DivisorLabel("E1"), -1), ExceptionalCurve(DivisorLabel("E2"), -1)),
            ((0, 1, 2),),
        )
    with pytest.raises(InvalidModel):
        ExceptionalCurve(DivisorLabel("E1"), 0)


def test_du_val_a1_has_zero_discrepancy():
    model = single_curve_model(-2)
    assert relative_canonical(model) == DivisorVector.zero()


def test_one_third_quotient_discrepancy():
    model = single_curve_model(-3)
    assert discrepancies(model) == {"E": Fraction(-1, 3)}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cone_over_elliptic_curve_discrepancy(d):
    model = single_curve_model(-d, genus=1)
    assert discrepancies(model) == {"E": Fraction(-1)}


def test_a_chain_discrepancies_vanish():
    for r in range(2, 13):
        model = chain_model(*([-2] * (r - 1)))
        assert relative_canonical(model) == DivisorVector.zero()


def test_numerical_pullback_of_zero():
    model = single_curve_model(-3)
    assert numerical_pullback(model, {}) == DivisorVector.zero()
    assert numerical_pullback(model, {"C": 0}) == DivisorVector.zero()


def test_numerical_pullback_one_third_example():
    # strict transform meets E once: (-3) a = -1 so a = 1/3
    model = single_curve_model(-3)
    pb = numerical_pullback(model, {"C": 1})
    assert pb == DivisorVector([(C, 1), (E, Fraction(1, 3))])
    # relatively trivial and pushforward preserved
    assert model.intersect_with_curves(pb) == (Fraction(0),)


def test_numerical_pullback_is_linear():
    model = chain_model(-2, -3)
    bigger = ResolutionModel(model.curves, model.edges, (Extra(C, (1, 2)),))
    one = numerical_pullback(bigger, {"C": 1})
    for t in (Fraction(3), Fraction(-5, 7)):
        assert numerical_pullback(bigger, {"C": t}) == one.scale(t)
    assert bigger.intersect_with_curves(one) == (Fraction(0), Fraction(0))


def test_negativity_check_single_curve():
    model = single_curve_model(-2)
    assert negativity_check(model, DivisorVector([(E, Fraction(-1, 2))]))
    # hypotheses fail (E.D < 0): vacuously true
    assert negativity_check(model, DivisorVector([(E, 1)]))


def test_negativity_check_chain_brute_force():
    model = chain_model(-2, -2)
    e1, e2 = (c.label for c in model.curves)
    for a1 in range(-6, 7):
        for a2 in range(-6, 7):
            d = DivisorVector([(e1, Fraction(a1, 2)), (e2, Fraction(a2, 2))])
            dots = model.intersect_with_curves(d)
            assert negativity_check(model, d)
            if all(v >= 0 for v in dots):
                assert a1 <= 0 and a2 <= 0


def random_negative_definite_model(rng, max_size=8):
    n = rng.randint(1, max_size)
    off = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            off[i][j] = off[j][i] = rng.choice((0, 0, 0, 1, 1, 2))
    for i in range(1, n):  # the dual graph over one point is connected: link a curve with no earlier neighbour
        if not any(off[i][:i]):
            off[i][i - 1] = off[i - 1][i] = 1
    curves = []
    for i in range(n):
        diag = -(sum(off[i]) + rng.randint(1, 3))
        curves.append(ExceptionalCurve(DivisorLabel(f"E{i+1}"), diag, rng.choice((0, 0, 1))))
    edges = tuple((i, j, off[i][j]) for i in range(n) for j in range(i + 1, n) if off[i][j])
    return ResolutionModel(tuple(curves), edges)


def test_negativity_fuzz():
    rng = random.Random(2024)
    for _ in range(100):
        model = random_negative_definite_model(rng)
        goal = [Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in model.curves]
        coeffs = solve(model.diagonal, model.edges, goal)
        d = DivisorVector(zip(model.labels, coeffs))
        assert negativity_check(model, d)
        assert all(c <= 0 for c in coeffs)


def test_pair_inequality_zero_gamma_is_equality():
    model = single_curve_model(-3)
    assert pair_inequality_check(model, {})
    assert pair_inequality_check(model, {"C": 0})


def test_pair_inequality_worked_example():
    # Gamma through the point: both sides solved by hand, -2/3 <= -1/3
    model = single_curve_model(-3)
    assert pair_inequality_check(model, {"C": 1})


def test_pair_inequality_rejects_negative_gamma():
    model = single_curve_model(-3)
    with pytest.raises(NonEffectiveGamma):
        pair_inequality_check(model, {"C": Fraction(-1, 2)})


def test_pair_inequality_reports_a_negative_gamma_before_an_unknown_name():
    model = single_curve_model(-3)
    with pytest.raises(NonEffectiveGamma):
        pair_inequality_check(model, {"X": -1})
    with pytest.raises(InvalidModel) as exc:
        pair_inequality_check(model, {"X": 1})
    assert str(exc.value) == "model has no extra divisor named 'X'"


def test_pair_inequality_against_two_solves():
    # both sides solved for as the docstring states them, against the one
    # solve of the check: by linearity their difference is the exceptional
    # part of pi*_num(Gamma)
    rng = random.Random(2026)
    for _ in range(200):
        base = _random_negative_definite(rng)
        model = ResolutionModel(base.curves, base.edges, (Extra(C, tuple(rng.randint(0, 2) for _ in base.curves)),))
        gamma = {"C": Fraction(rng.randint(0, 9), rng.randint(1, 4))}
        k_dots = [Fraction(v) for v in model.canonical_intersections()]
        g_dots = model.intersect_with_curves(DivisorVector([(C, gamma["C"])]))
        a = solve(model.diagonal, model.edges, [-(k + g) for k, g in zip(k_dots, g_dots)])
        lhs = DivisorVector(zip(model.labels, (-ai for ai in a)))
        rc = DivisorVector(zip(model.labels, solve(model.diagonal, model.edges, k_dots)))
        assert pair_inequality_check(model, gamma) == (lhs <= rc)
        pullback = numerical_pullback(model, gamma)
        assert rc - lhs == DivisorVector((label, c) for label, c in pullback.items() if label.kind == "exceptional")


def test_multiplier_divisor_against_two_solves():
    # the one solve of `numerical_multiplier_divisor` against the round-up of
    # K^num - pi*_num(lambda Z), each side solved for on its own
    rng = random.Random(2027)
    D = DivisorLabel("D", "strict-transform")
    for _ in range(300):
        base = _random_negative_definite(rng)
        extras = tuple(Extra(label, tuple(rng.randint(0, 2) for _ in base.curves)) for label in (C, D))
        model = ResolutionModel(base.curves, base.edges, extras)
        z = {label.name: Fraction(rng.randint(0, 9), rng.randint(1, 4)) for label in rng.sample((C, D), rng.randint(0, 2))}
        lam = Fraction(rng.randint(0, 7), rng.randint(1, 5))
        two_solves = (relative_canonical(model) - numerical_pullback(model, {n: lam * c for n, c in z.items()})).ceil()
        assert numerical_multiplier_divisor(model, z, lam) == two_solves


def test_pair_inequality_fuzz():
    rng = random.Random(99)
    for _ in range(60):
        base = random_negative_definite_model(rng, max_size=5)
        n = len(base.curves)
        extra = Extra(C, tuple(rng.randint(0, 2) for _ in range(n)))
        model = ResolutionModel(base.curves, base.edges, (extra,))
        gamma = {"C": Fraction(rng.randint(0, 9), rng.randint(1, 4))}
        assert pair_inequality_check(model, gamma)


def test_intersect_with_curves_on_a_chain_with_every_label():
    selfs = (-2, -3, -2, -4, -2, -3)
    labels = [DivisorLabel(f"E{i + 1}", "exceptional") for i in range(6)]
    edges = tuple((i + 1, i, 1) for i in range(5))  # listed backwards, as a model file may
    matrix = dense(selfs, edges)
    meets = (1, 0, 0, 0, 0, 2)
    model = ResolutionModel(tuple(ExceptionalCurve(lab, s) for lab, s in zip(labels, selfs)), edges, (Extra(C, meets),))
    coeffs = [Fraction(3, 2), Fraction(-1), Fraction(2, 3), Fraction(5), Fraction(0), Fraction(-7, 4)]
    d = DivisorVector(list(zip(labels, coeffs)) + [(C, Fraction(1, 3))])
    expected = tuple(sum(coeffs[i] * matrix[i][j] for i in range(6)) + Fraction(1, 3) * meets[j] for j in range(6))
    assert model.intersect_with_curves(d) == expected
    with pytest.raises(InvalidModel, match="unknown exceptional label 'E7'"):
        model.intersect_with_curves(DivisorVector([(DivisorLabel("E7", "exceptional"), 1)]))
