"""Multiplier ideals of pairs on the toric surface models.

The numerical multiplier ideal of (X, lambda*Z) is computed on the
minimal resolution as sections of the round-up of
(K_Y - pi*_num K_X) - pi*(lambda Z), pushed forward to X.  The
m-limiting variants replace the numerical relative canonical by the one
cut out by the module O_X(-m K_X); boundary-decorated ideals use the
honest pullback of K_X + Delta.  All three only differ in which exact
rational divisor gets rounded up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .divisors import DivisorVector, RatLike, rat
from .errors import InvalidModel, NonEffectiveGamma
from .resolution import relative_canonical
from .toric import (
    MonomialIdeal,
    ToricSurfaceModel,
    canonical_divisor_on_resolution,
    m_limiting_relative_canonical,
    pullback_divisor,
    pushforward_sections,
    support_function,
    to_resolution,
)

@dataclass(frozen=True)
class PairSpec:
    """An effective pair (X, lambda * Z) with Z supported on the boundary."""

    model: ToricSurfaceModel
    z: DivisorVector
    lam: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "lam", rat(self.lam))
        if self.lam < 0:
            raise InvalidModel("the scaling factor must be >= 0")
        if not self.z.is_effective():
            raise InvalidModel("Z must be effective")
        boundary = set(self.model.boundary_labels)
        if any(l not in boundary for l in self.z.support):
            raise InvalidModel("Z must be supported on the boundary rays")

    def scaled_z(self) -> DivisorVector:
        return self.z.scale(self.lam)


@lru_cache(maxsize=None)
def numerical_relative_canonical(model: ToricSurfaceModel) -> DivisorVector:
    """K_Y - pi*_num K_X computed through the intersection matrix."""
    return relative_canonical(to_resolution(model))


@lru_cache(maxsize=None)
def multiplier_ideal(pair: PairSpec) -> MonomialIdeal:
    """Sections of the round-up of K^num - pi*(lambda Z), pushed to X."""
    knum = numerical_relative_canonical(pair.model)
    d = (knum - pullback_divisor(pair.model, pair.scaled_z())).ceil()
    return pushforward_sections(pair.model, d)


def multiplier_m_limiting(pair: PairSpec, m: int) -> MonomialIdeal:
    """The m-limiting multiplier ideal; contained in the numerical one,
    with equality whenever the Cartier index of K_X divides m."""
    km = m_limiting_relative_canonical(pair.model, m)
    d = (km - pullback_divisor(pair.model, pair.scaled_z())).ceil()
    return pushforward_sections(pair.model, d)


def multiplier_with_boundary(pair: PairSpec, delta: DivisorVector) -> MonomialIdeal:
    """Classical multiplier ideal of ((X, Delta), lambda Z).

    Delta is an effective boundary-supported Q-divisor; K_X + Delta is
    then Q-Cartier, as every torus-invariant Q-divisor on an affine toric
    surface is (its support function ell is linear).
    """
    model = pair.model
    boundary = set(model.boundary_labels)
    if any(l not in boundary for l in delta.support):
        raise InvalidModel("Delta must be supported on the boundary rays")
    if not delta.is_effective():
        raise NonEffectiveGamma("Delta must be effective")
    bl, br = model.boundary_labels
    w = pair.scaled_z()
    c_left = Fraction(-1) + delta.coeff(bl) + w.coeff(bl)
    c_right = Fraction(-1) + delta.coeff(br) + w.coeff(br)
    ell = support_function(model, c_left, c_right)
    pull = DivisorVector(
        [(label, ell[0] * vec[0] + ell[1] * vec[1]) for label, vec in model.rays()]
    )
    d = (canonical_divisor_on_resolution(model) - pull).ceil()
    return pushforward_sections(model, d)


def jumping_numbers(pair: PairSpec, lam_max: RatLike) -> list[tuple[Fraction, MonomialIdeal]]:
    """The finitely many t in (0, lam_max] where the multiplier ideal of
    t*Z changes, each with the new ideal.

    Candidates are the exact rationals where a coefficient of
    K^num - t * pi*Z crosses an integer; Z = 0 yields the empty list.
    """
    lam_max = rat(lam_max)
    if lam_max <= 0:
        raise InvalidModel("lam_max must be positive")
    model = pair.model
    zpull = pullback_divisor(model, pair.z)
    knum = numerical_relative_canonical(model)
    candidates: set[Fraction] = set()
    for label, zv in zpull.items():
        if zv <= 0:
            continue
        kv = knum.coeff(label)
        n_lo = math.ceil(kv - lam_max * zv)
        n_hi = math.floor(kv)
        for n in range(n_lo, n_hi + 1):
            t = (kv - n) / zv
            if 0 < t <= lam_max:
                candidates.add(t)
    jumps: list[tuple[Fraction, MonomialIdeal]] = []
    previous = multiplier_ideal(PairSpec(model, pair.z, Fraction(0)))
    for t in sorted(candidates):
        current = multiplier_ideal(PairSpec(model, pair.z, t))
        if current != previous:
            jumps.append((t, current))
            previous = current
    return jumps


def numerical_multiplier_divisor(model, z_coeffs, lam: RatLike) -> DivisorVector:
    """Divisor-level output for bare resolution models (no coordinate ring):
    the round-up of K^num - pi*_num(lambda Z) with Z given through extras."""
    from .resolution import numerical_pullback

    lam = rat(lam)
    scaled = {name: lam * rat(c) for name, c in z_coeffs.items()}
    knum = relative_canonical(model)
    return (knum - numerical_pullback(model, scaled)).ceil()
