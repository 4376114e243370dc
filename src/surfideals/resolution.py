"""Resolutions of normal surface singularities as intersection data.

A `ResolutionModel` records the exceptional curves of a projective
resolution pi: Y -> X of one normal surface point, its dual graph (the
curves' self-intersections and the edges (i, j, E_i . E_j), one per
pair, as a model file lists them), and optional non-exceptional
divisors ("extras": strict transforms or boundary components) through
their intersection numbers with the E_i.  The intersection matrix is
never stored: `linalg` eliminates the graph, leaves first, once, and the
model keeps the steps in its instance dict (the class has no `__slots__`).
Their pivots decide negative definiteness (the classical contractibility
criterion) by Sylvester's law of inertia, and each solve is their two
substitution passes, O(n) exact steps on a tree, as the dual graph of a
rational singularity is (Artin, 1966).  They also give connectivity: a
curve's neighbours at its step lie in its component and go later (fill
edges join them), so one reverse pass labels a component by its last curve.

On this data the module computes Mumford's numerical pullback, the
numerical relative canonical divisor K_Y - pi*_num(K_X) whose
exceptional coefficients are the discrepancies, the surface negativity
check, and the discrepancy inequality for effective boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from . import linalg
from .divisors import DivisorLabel, DivisorVector, RatLike, _make_checked, rat
from .errors import DisconnectedDualGraph, InvalidModel, NonEffectiveGamma, NotNegativeDefinite


class ExceptionalCurve(NamedTuple("ExceptionalCurve", [("label", DivisorLabel), ("self_intersection", int), ("genus", int)])):
    __slots__ = ()
    _make = _make_checked

    def __new__(cls, label, self_intersection, genus=0):
        if label.kind != "exceptional":
            raise InvalidModel(f"curve {label.name!r} must have kind 'exceptional'")
        if self_intersection > -1:
            raise InvalidModel(f"curve {label.name!r} needs self-intersection <= -1")
        if genus < 0:
            raise InvalidModel(f"curve {label.name!r} has negative genus")
        return tuple.__new__(cls, (label, self_intersection, genus))


class Extra(NamedTuple("Extra", [("label", DivisorLabel), ("meets", tuple[int, ...])])):
    """A non-exceptional prime divisor seen through the resolution.

    `meets` lists its intersection number with each exceptional curve.
    It maps birationally onto its image on X, so pi_* C = C_X.
    """

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, label, meets):
        if label.kind == "exceptional":
            raise InvalidModel(f"extra {label.name!r} cannot be exceptional")
        if any(m < 0 for m in meets):
            raise InvalidModel(f"extra {label.name!r} has negative intersection numbers")
        return tuple.__new__(cls, (label, meets))


class ResolutionModel(NamedTuple("ResolutionModel", [("curves", tuple[ExceptionalCurve, ...]), ("edges", tuple[linalg.Edge, ...]), ("extras", tuple[Extra, ...])])):
    _make = _make_checked
    __reduce__ = lambda self: (type(self), tuple(self))  # a pickle or copy holds the fields, not the steps

    def __new__(cls, curves, edges, extras=()):
        n = len(curves)
        pairs = set()
        for i, j, m in edges:
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise InvalidModel(f"edge ({i}, {j}) needs two distinct curve indices below {n}")
            pair = (min(i, j), max(i, j))
            if pair in pairs:
                raise InvalidModel(f"edge ({i}, {j}) repeats a pair of curves")
            pairs.add(pair)
            if m < 0:
                raise InvalidModel("off-diagonal intersection numbers must be >= 0")
        names = [c.label.name for c in curves] + [x.label.name for x in extras]
        if len(set(names)) != len(names):
            raise InvalidModel("divisor labels must be unique within a model")
        for x in extras:
            if len(x.meets) != n:
                raise InvalidModel(f"extra {x.label.name!r} has {len(x.meets)} intersection numbers, expected {n}")
        self = tuple.__new__(cls, (curves, edges, extras))
        self._steps = linalg._eliminate(self.diagonal, edges)
        if self._steps is None:
            raise NotNegativeDefinite("intersection matrix is not negative definite")
        # the exceptional set over one normal point is connected (Zariski's main theorem)
        root = [0] * n
        for v, _, nbrs in reversed(self._steps):
            root[v] = root[next(iter(nbrs))] if nbrs else v
        for k in range(n):
            if root[k] != root[0]:
                raise DisconnectedDualGraph(f"curves[{k}] ({curves[k].label.name!r}) is not connected to curves[0] through the intersections; the dual graph must be connected")
        return self

    # -- structure --------------------------------------------------------

    @property
    def labels(self) -> tuple[DivisorLabel, ...]:
        return tuple(c.label for c in self.curves)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(c.self_intersection for c in self.curves)

    def extra_by_name(self, name: str) -> Extra:
        for x in self.extras:
            if x.label.name == name:
                return x
        raise InvalidModel(f"model has no extra divisor named {name!r}")

    def canonical_intersections(self) -> tuple[int, ...]:
        """K_Y . E_i by adjunction: -E_i^2 - 2 + 2 genus(E_i)."""
        return tuple(-c.self_intersection - 2 + 2 * c.genus for c in self.curves)

    def intersect_with_curves(self, d: DivisorVector) -> tuple[Fraction, ...]:
        """The vector (D . E_j)_j for a divisor supported on model labels."""
        index = {label: i for i, label in enumerate(self.labels)}
        a = [0] * len(self.curves)
        dots = [Fraction(0)] * len(self.curves)
        for label, c in d.items():
            if label.kind != "exceptional":
                for j, m in enumerate(self.extra_by_name(label.name).meets):
                    dots[j] += c * m
            elif label in index:
                a[index[label]] = c
            else:
                raise InvalidModel(f"unknown exceptional label {label.name!r}")
        for i, j, m in self.edges:
            dots[i] += a[j] * m
            dots[j] += a[i] * m
        return tuple(dot + ai * e for dot, ai, e in zip(dots, a, self.diagonal))


def relative_canonical(model: ResolutionModel) -> DivisorVector:
    """K_Y - pi*_num(K_X), supported on the exceptional curves.

    The coefficient of E_i is its (numerical) discrepancy: the unique
    exceptional a with (K_Y - sum a_i E_i) . E_j = 0 for every j.
    """
    a = linalg.substitute(model._steps, model.canonical_intersections())
    return DivisorVector(zip(model.labels, a))


def discrepancies(model: ResolutionModel) -> dict[str, Fraction]:
    coeffs = dict(relative_canonical(model).items())
    return {c.label.name: coeffs.get(c.label, Fraction(0)) for c in model.curves}


def numerical_pullback(model: ResolutionModel, coeffs: Mapping[str, RatLike]) -> DivisorVector:
    """Numerical pullback of D = sum coeff * (image of extra) on X.

    Returns strict transform + exceptional correction: the unique divisor
    with zero intersection against every E_j that pushes forward to D.
    """
    strict = DivisorVector([(model.extra_by_name(n).label, rat(c)) for n, c in coeffs.items()])
    dots = model.intersect_with_curves(strict)
    a = linalg.substitute(model._steps, [-d for d in dots])
    return strict + DivisorVector(zip(model.labels, a))


def negativity_lemma(model, d: DivisorVector) -> tuple[bool, bool]:
    """(hypotheses hold, D <= 0) for the surface negativity lemma.

    The hypotheses are D . E_j >= 0 for all j and pushforward of D <= 0;
    negative definiteness forces D <= 0 when they hold.  It only calls
    `model.intersect_with_curves`, so a `toric.ToricSurfaceModel` works too.
    """
    dots = model.intersect_with_curves(d)
    hypotheses = all(v >= 0 for v in dots) and all(c <= 0 for label, c in d.items() if label.kind != "exceptional")
    return hypotheses, all(c <= 0 for _, c in d.items())


def negativity_check(model, d: DivisorVector) -> bool:
    """The lemma as a runtime assertion: D <= 0 when the hypotheses hold,
    vacuously true otherwise."""
    hypotheses, nonpositive = negativity_lemma(model, d)
    return nonpositive or not hypotheses


def pair_inequality_check(model: ResolutionModel, gamma: Mapping[str, RatLike]) -> bool:
    """K_Y - pi*_num(K_X + Gamma) <= K_Y - pi*_num(K_X) on exceptional labels.

    Gamma is an effective divisor on X given through extras.  By linearity
    the sides differ by the exceptional part of pi*_num(Gamma), which is
    >= 0 because the inverse intersection matrix has nonpositive entries:
    the check is that pi*_num(Gamma) (strict part Gamma >= 0) is effective.
    """
    g = {name: rat(c) for name, c in gamma.items()}
    if any(c < 0 for c in g.values()):
        raise NonEffectiveGamma("Gamma must have nonnegative coefficients")
    return numerical_pullback(model, g).is_effective()
