"""Multiplier ideals of pairs on the toric surface models.

The numerical multiplier ideal of (X, lambda*Z) is computed on the
minimal resolution as sections of the round-up of
(K_Y - pi*_num K_X) - pi*(lambda Z), pushed forward to X.  The
m-limiting variants replace the numerical relative canonical by the one
cut out by the module O_X(-m K_X); boundary-decorated ideals use the
honest pullback of K_X + Delta.  All three only differ in which exact
rational divisor gets rounded up.

Where K^num = K_Y - pi*_num K_X comes from.  On a toric model every
torus-invariant Q-divisor is Q-Cartier, so pi*_num K_X is the pullback
through the support function ell_K of K_X = -(B_left + B_right)
(`toric.support_function`), and K^num is -1 - <ell_K, v> on each ray v:
zero on the boundary rays, the discrepancy on the exceptional ones.
Every command on a cyclic model takes K^num, pullbacks and intersection
numbers from the fan.  A dual graph has no fan: there K^num - pi*_num W
is solved for on the graph, in one solve (`numerical_multiplier_divisor`).

Theorem: J(X, W) = O_X(-floor(W)) for W = w_left B_left + w_right B_right
with w_v >= 0 (Howald 2001; Blickle 2004).  K^num - pi^* W is
K_Y - pi^* D with D = K_X + W; with ell the support function of D, so
that <ell, v> = w_v - 1 on each boundary ray, and K_Y = -1 on every ray,
x^u is a section of the round-up iff <u, v> >= 1 + floor(<ell, v>) on
every ray v: floor(w_v) on the boundary rays.  Take u with
<u, v> >= floor(w_v) > w_v - 1 on both boundary rays.  Then
<u - ell, v> > 0 on every exceptional ray v, a positive combination of
the boundary rays, so the integer <u, v> is at least 1 + floor(<ell, v>):
the exceptional bounds never bind.

Jumping numbers.  By the theorem J(tZ) changes only where t z_v crosses
an integer on a boundary ray v, so the candidates in (0, lam_max] are
t = n / z_v with 1 <= n <= floor(lam_max z_v); K^num and the pullback of
Z play no part.  Each candidate is a jump: it raises some floor(t z_v),
the least pairing on the ray v of the monomials of O_X(-floor(tZ)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .divisors import DivisorVector, RatLike, rat
from .errors import BadParameters, InvalidModel, NonEffectiveGamma
from .toric import (
    MonomialIdeal,
    ToricSurfaceModel,
    corner_stairs,
    dot,
    m_limiting_relative_canonical,
    pullback_divisor,
    pushforward_sections,
    support_function,
)

# The most candidate jumping numbers one scan accepts; the count is known
# before any ideal is built, so a larger scan is refused at once.
JUMPS_LIMIT = 100_000


def _check_effective(lam: Fraction, z_effective: bool) -> None:
    """The pair (X, lam Z) is effective: lam >= 0, then Z >= 0."""
    if lam < 0:
        raise InvalidModel("the scaling factor must be >= 0")
    if not z_effective:
        raise InvalidModel("Z must be effective")


class PairSpec(NamedTuple("PairSpec", [("model", ToricSurfaceModel), ("z", DivisorVector), ("lam", Fraction), ("w_left", Fraction), ("w_right", Fraction)])):
    """An effective pair (X, lambda * Z) with Z supported on the boundary,
    built as PairSpec(model, z, lam=1).

    `w_left` and `w_right` are the coefficients of W = lambda Z on the two
    boundary rays, derived from the other fields: with the model, they are
    all a toric pair's ideals depend on.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:3]))  # and so `_replace`: w_left, w_right are derived

    def __new__(cls, model, z, lam=Fraction(1)):
        lam = rat(lam)
        _check_effective(lam, z.is_effective())
        bl, br = model.boundary_labels
        if any(l not in (bl, br) for l in z.support):
            raise InvalidModel("Z must be supported on the boundary rays")
        return tuple.__new__(cls, (model, z, lam, lam * z.coeff(bl), lam * z.coeff(br)))

    def __getnewargs__(self):
        return self[:3]

    def scaled_z(self) -> DivisorVector:
        return self.z.scale(self.lam)


def numerical_relative_canonical(model: ToricSurfaceModel) -> DivisorVector:
    """K^num = K_Y - pi^* K_X: -1 - <ell_K, v> on each exceptional ray v,
    with ell_K the support function of K_X (module docstring)."""
    ell = support_function(model, Fraction(-1), Fraction(-1))
    return DivisorVector((label, -1 - dot(ell, v)) for label, v in zip(model.exceptional_labels, model.exceptional_rays))


def _round_up_sections(model: ToricSurfaceModel, wl: Fraction, wr: Fraction) -> MonomialIdeal:
    """J(X, W) = pi_* O_Y(ceil(K^num - pi^* W)) for W = wl B_left + wr B_right
    with wl, wr >= 0: the corner module O_X(-floor(W)), since the bounds
    on the exceptional rays never bind (theorem in the module docstring)."""
    return MonomialIdeal(model, corner_stairs(model, math.floor(wl), math.floor(wr)))


def multiplier_ideal(pair: PairSpec) -> MonomialIdeal:
    """Sections of the round-up of K^num - pi*(lambda Z), pushed to X."""
    return _round_up_sections(pair.model, pair.w_left, pair.w_right)


def multiplier_m_limiting(pair: PairSpec, m: int) -> MonomialIdeal:
    """The m-limiting multiplier ideal; contained in the numerical one,
    with equality whenever the Cartier index of K_X divides m."""
    return _m_limiting(pair, m)[0]


def _m_limiting(pair: PairSpec, m: int) -> tuple[MonomialIdeal, DivisorVector]:
    """The m-limiting multiplier ideal with the K_m it rounds up from."""
    km = m_limiting_relative_canonical(pair.model, m)
    d = (km - pullback_divisor(pair.model, pair.scaled_z())).ceil()
    return pushforward_sections(pair.model, d), km


def multiplier_with_boundary(pair: PairSpec, delta: DivisorVector) -> MonomialIdeal:
    """Classical multiplier ideal of ((X, Delta), lambda Z).

    Delta is an effective boundary-supported Q-divisor; K_X + Delta is
    then Q-Cartier, as every torus-invariant Q-divisor on an affine toric
    surface is (its support function ell is linear).
    """
    bl, br = pair.model.boundary_labels
    if any(l not in (bl, br) for l in delta.support):
        raise InvalidModel("Delta must be supported on the boundary rays")
    if not delta.is_effective():
        raise NonEffectiveGamma("Delta must be effective")
    return _round_up_sections(pair.model, pair.w_left + delta.coeff(bl), pair.w_right + delta.coeff(br))


def jumping_numbers(pair: PairSpec, lam_max: RatLike) -> list[tuple[Fraction, MonomialIdeal]]:
    """The finitely many t in (0, lam_max] where the multiplier ideal of
    t*Z changes, each with the new ideal.

    They are the t = n / z_v of the boundary rays v (module docstring);
    more than JUMPS_LIMIT of them is refused before any ideal is built.
    Z = 0 yields the empty list.
    """
    lam_max = rat(lam_max)
    if lam_max <= 0:
        raise InvalidModel("lam_max must be positive")
    model = pair.model
    zl, zr = (pair.z.coeff(label) for label in model.boundary_labels)
    count = math.floor(lam_max * zl) + math.floor(lam_max * zr)
    if count > JUMPS_LIMIT:
        raise BadParameters(f"{count} candidate jumping numbers exceed the limit of {JUMPS_LIMIT}")
    candidates = sorted({n / zv for zv in (zl, zr) for n in range(1, math.floor(lam_max * zv) + 1)})
    return [(t, _round_up_sections(model, t * zl, t * zr)) for t in candidates]


def numerical_multiplier_divisor(model, z_coeffs, lam: RatLike) -> DivisorVector:
    """Divisor-level output for bare resolution models (no coordinate ring):
    the round-up of K^num - pi*_num(lambda Z) with Z given through extras;
    the pair must be effective, as a `PairSpec` must.  An unknown name is
    reported first, as a cyclic model reports an unknown ray first.  By
    linearity the divisor has strict part -lambda Z and exceptional part x
    with M x = K_Y.E + (lambda Z).E: one solve on the model's steps."""
    lam, z = rat(lam), {name: rat(c) for name, c in z_coeffs.items()}
    strict = [model.extra_by_name(name).label for name in z]
    _check_effective(lam, all(c >= 0 for c in z.values()))
    minus_w = DivisorVector(zip(strict, (-lam * c for c in z.values())))
    rhs = [k - d for k, d in zip(model.canonical_intersections(), model.intersect_with_curves(minus_w))]
    x = linalg.substitute(model._steps, rhs)
    return DivisorVector((label, math.ceil(c)) for label, c in (*minus_w.items(), *zip(model.labels, x)))
