"""Toric models of cyclic quotient surface singularities.

The singularity 1/r(1,a) (gcd(r,a)=1) is presented on the lattice
N = Z^2 by the cone spanned by v_left = (0,1) and v_right = (r,-a);
this is the quotient presentation rewritten in the basis
(1/r)(1,a), (0,1) of Z^2 + Z*(1/r)(1,a).  Its minimal resolution is
the fan refinement along the rays u_1=(1,0), u_{i+1} = b_i u_i - u_{i-1}
where r/a = [[b_1,...,b_s]] is the negative-regular continued fraction;
consecutive rays span unimodular cones and the dual graph is the chain
of rational curves with self-intersections -b_i.  A model is its (r, a),
always in this basis, with det(v_left, v_right) = -r; the smooth chart
(1, 1) has v_right = (1, 0) and no exceptional ray.

The orientation of the continued fraction is pinned by two
convention-free identities checked in the test suite: 1/3(1,1) resolves
to a single -3 curve, and 1/r(1,r-1) to a chain of r-1 curves of
self-intersection -2.

Monomials live in the dual lattice M = Z^2 with the standard pairing;
ord_{D_v}(x^u) = <u, v>.  Ideals and section modules are stored as
staircases in pairing coordinates (s, t) = (<u, v_left>, <u, v_right>),
found by a 1-D scan over s (exact, no 2-D enumeration); exponent vectors
u enter through `from_points` and `contains_point` and leave through
`gens`, `section_module_min_gens` and `m_limiting_relative_canonical`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .divisors import DivisorLabel, DivisorVector, RatLike, _make_checked, rat
from .errors import BadParameters, EnumerationLimitExceeded, InvalidModel, NotIntegral
from .resolution import ExceptionalCurve, Extra, ResolutionModel

Point = tuple[int, int]
Pair = tuple[int, int]  # (s, t) = (<u, v_left>, <u, v_right>)

LEFT = "BL"
RIGHT = "BR"
LEFT_LABEL = DivisorLabel(LEFT, "boundary")
RIGHT_LABEL = DivisorLabel(RIGHT, "boundary")
BOUNDARY = DivisorVector([(LEFT_LABEL, 1), (RIGHT_LABEL, 1)])  # B_left + B_right of every model; immutable

# Hard cap on the s values one section scan visits (at most r past
# its last binding constraint): only inputs far past desk scale reach it.
ENUMERATION_LIMIT = 4_000_000


def _ceildiv(a: int, b: int) -> int:
    return -((-a) // b)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _minimal_stairs(pairs: Iterable[Pair]) -> tuple[Pair, ...]:
    """The minimal pairs of a finite set of (s, t), sorted by s.

    After sorting, a pair is minimal iff its t is below every earlier t;
    (s, t) determines u, so equal pairs are duplicates.
    """
    stairs = []
    best_t = math.inf
    for s, t in sorted(pairs):
        if t < best_t:
            stairs.append((s, t))
            best_t = t
    return tuple(stairs)


def _stairs_contain(stairs: tuple[Pair, ...], s: int, t: int) -> bool:
    """Whether the ideal with staircase `stairs` holds every monomial with
    pairings >= (s, t): the last stair with s_i <= s has the least t among
    them, found by bisection."""
    i = bisect_right(stairs, s, key=itemgetter(0))
    return i > 0 and stairs[i - 1][1] <= t


def negative_continued_fraction(num: int, den: int) -> tuple[int, ...]:
    """Expansion num/den = b_1 - 1/(b_2 - 1/(...)) with all b_i >= 2."""
    if den <= 0 or num <= den or math.gcd(num, den) != 1:
        raise BadParameters(f"expected coprime num > den >= 1, got {num}/{den}")
    bs = []
    while den:
        b = _ceildiv(num, den)
        bs.append(b)
        num, den = den, b * den - num
    return tuple(bs)


class ToricSurfaceModel(NamedTuple("ToricSurfaceModel", [("r", int), ("a", int)])):
    """Resolved cyclic quotient 1/r(1,a), with (1, 1) the smooth chart; any other
    (r, a) is refused at construction.  It is the tuple (r, a), so equality and
    cache keys read two ints; the rest is derived once, into the instance dict
    that the class keeps by declaring no `__slots__`."""

    v_left = (0, 1)
    _make = _make_checked

    def __new__(cls, r, a):
        if not (isinstance(r, int) and isinstance(a, int)) or isinstance(r, bool) or isinstance(a, bool):
            raise BadParameters("r and a must be integers")
        if r == 1 and a != 1:
            raise BadParameters("the smooth chart is addressed as (r, a) = (1, 1)")
        if r != 1 and (r < 1 or not (1 <= a < r) or math.gcd(r, a) != 1):
            raise BadParameters(f"need gcd(r, a) = 1 and 1 <= a < r, got r={r}, a={a}")
        return tuple.__new__(cls, (r, a))

    @cached_property
    def v_right(self) -> Point:
        return (self.r, -(self.a % self.r))

    @cached_property
    def hj(self) -> tuple[int, ...]:
        return negative_continued_fraction(self.r, self.a) if self.r > 1 else ()

    # -- labels and rays ---------------------------------------------------

    @cached_property
    def _ray_table(self) -> dict[str, tuple[DivisorLabel, Point]]:
        """name -> (label, vector) of every ray, left to right: u_0 = v_left, u_1 = (1, 0),
        u_{i+1} = b_i u_i - u_{i-1}, closing the cone at u_{s+1} = v_right (`test_toric`)."""
        rays = [self.v_left, (1, 0)]
        for b in self.hj:
            rays.append((b * rays[-1][0] - rays[-2][0], b * rays[-1][1] - rays[-2][1]))
        exceptional = (DivisorLabel(f"E{i}", "exceptional") for i in range(1, len(rays) - 1))
        return {label.name: (label, vec) for label, vec in zip((LEFT_LABEL, *exceptional, RIGHT_LABEL), rays)}

    @property
    def boundary_labels(self) -> tuple[DivisorLabel, DivisorLabel]:
        return (LEFT_LABEL, RIGHT_LABEL)

    @property
    def exceptional_labels(self) -> tuple[DivisorLabel, ...]:
        return tuple(label for label, _ in self.rays()[1:-1])

    @property
    def exceptional_rays(self) -> tuple[Point, ...]:
        return tuple(vec for _, vec in self.rays()[1:-1])

    def rays(self) -> tuple[tuple[DivisorLabel, Point], ...]:
        """All rays of the resolution fan, left boundary to right boundary."""
        return tuple(self._ray_table.values())

    def _entry(self, name: str) -> tuple[DivisorLabel, Point]:
        try:
            return self._ray_table[name]
        except KeyError:
            raise InvalidModel(f"model has no ray named {name!r}") from None

    def ray(self, name: str) -> Point:
        return self._entry(name)[1]

    def label(self, name: str) -> DivisorLabel:
        return self._entry(name)[0]

    def divisor(self, coeffs: Mapping[str, RatLike]) -> DivisorVector:
        """Torus-invariant divisor from a ray-name -> coefficient map."""
        return DivisorVector([(self.label(n), rat(c)) for n, c in coeffs.items()])

    def intersect_with_curves(self, d: DivisorVector) -> tuple[Fraction, ...]:
        """(D . E_j)_j = c_{j-1} - b_j c_j + c_{j+1}, with c the coefficients
        of D over `rays()` in order: the wall relation v_{j-1} + v_{j+1} =
        b_j v_j gives D_{v_{j+-1}} . E_j = 1 and E_j^2 = -b_j (Fulton 1993)."""
        coeffs = dict(d.items())
        c = [coeffs.pop(label, Fraction(0)) for label, _ in self.rays()]
        if coeffs:
            raise InvalidModel(f"divisor label {next(iter(coeffs)).name!r} is not a ray of the model")
        return tuple(c[j - 1] - b * c[j] + c[j + 1] for j, b in enumerate(self.hj, start=1))

    def boundary_divisor(self) -> DivisorVector:
        return BOUNDARY

    def pairing(self, u: Point) -> Pair:
        """Pairing coordinates (s, t) = (u_1, <u, v_right>) of the monomial x^u."""
        return (u[1], dot(u, self.v_right))

    def point(self, pair: Pair) -> Point:
        """The lattice point u with pairing coordinates `pair`: u_0 = (t + a s) / r, u_1 = s."""
        (s, t), (r, neg_a) = pair, self.v_right
        return ((t - neg_a * s) // r, s)

    def in_monoid(self, u: Point) -> bool:
        return min(self.pairing(u)) >= 0

    def __str__(self) -> str:
        return f"cyclic:{self.r}/{self.a}"


def hj_resolve(r: int, a: int) -> ToricSurfaceModel:
    """Minimal resolution of 1/r(1,a); (1,1) gives the smooth chart."""
    return ToricSurfaceModel(r, a)


def support_function(model: ToricSurfaceModel, c_left: Fraction, c_right: Fraction) -> tuple[Fraction, Fraction]:
    """The linear functional ell = ((c_right + a c_left) / r, c_left) in M_Q, with
    <ell, v_left> = c_left and <ell, v_right> = c_right.  Unique since the boundary
    rays are a basis of N_Q; its denominators certify Q-Cartier indices."""
    r, neg_a = model.v_right
    return (Fraction(c_right - neg_a * c_left) / r, Fraction(c_left))


def pullback_divisor(model: ToricSurfaceModel, z: DivisorVector) -> DivisorVector:
    """Pullback to the resolution of a boundary-supported Q-divisor on X.

    Every torus-invariant Q-divisor on the affine surface is Q-Cartier,
    so the pullback is computed from the support function; it agrees with
    the numerical pullback by uniqueness.
    """
    if any(l not in (LEFT_LABEL, RIGHT_LABEL) for l in z.support):
        raise InvalidModel("divisors on the base are supported on boundary rays only")
    ell = support_function(model, z.coeff(LEFT_LABEL), z.coeff(RIGHT_LABEL))
    return DivisorVector([(label, dot(ell, vec)) for label, vec in model.rays()])


def cartier_index(model: ToricSurfaceModel) -> int:
    """Smallest m >= 1 with m*K_X Cartier (K_X = -sum of boundary divisors)."""
    ell = support_function(model, Fraction(-1), Fraction(-1))
    return math.lcm(ell[0].denominator, ell[1].denominator)


def to_resolution(model: ToricSurfaceModel) -> ResolutionModel:
    """Intersection-theoretic shadow: the chain of -b_i rational curves,
    with both boundary divisors as extras meeting the ends of the chain."""
    s = len(model.hj)
    curves = tuple(ExceptionalCurve(label, -b, 0) for label, b in zip(model.exceptional_labels, model.hj))
    edges = tuple((i, i + 1, 1) for i in range(s - 1))
    left_meets = tuple(1 if i == 0 else 0 for i in range(s))
    right_meets = tuple(1 if i == s - 1 else 0 for i in range(s))
    extras = (Extra(LEFT_LABEL, left_meets), Extra(RIGHT_LABEL, right_meets))
    return ResolutionModel(curves, edges, extras)


# -- minimal generators of section modules --------------------------------


def section_module_min_gens(model: ToricSurfaceModel, bounds: Mapping[str, int]) -> tuple[Point, ...]:
    """Minimal generating antichain of {u in M : <u, v_j> >= bounds[j]}.

    Both boundary rays must be constrained (otherwise the solution set is
    not finitely generated over the monoid).  Minimality is with respect
    to divisibility in S = sigma-dual cap M, i.e. dominance of both
    boundary pairings.  The generators are sorted lexicographically.
    """
    if LEFT not in bounds or RIGHT not in bounds:
        raise InvalidModel("section bounds must constrain both boundary rays")
    exc = tuple((model.ray(name), c) for name, c in sorted((str(k), int(v)) for k, v in bounds.items() if k not in (LEFT, RIGHT)))
    stairs = _section_min_gens_cached(model, int(bounds[LEFT]), int(bounds[RIGHT]), exc)
    return tuple(sorted(map(model.point, stairs)))


def corner_stairs(model: ToricSurfaceModel, s_min: int, t_min: int) -> tuple[Pair, ...]:
    """Staircase of the corner module {u : s >= s_min, t >= t_min}."""
    return _section_min_gens_cached(model, s_min, t_min, ())


@lru_cache(maxsize=None)
def _section_min_gens_cached(
    model: ToricSurfaceModel, c_left: int, c_right: int, exc_bounds: tuple[tuple[Point, int], ...]
) -> tuple[Pair, ...]:
    """Staircase of {u : s >= c_left, t >= c_right, <u, v> >= c for each
    pair (v, c) of `exc_bounds`}, by a scan over s.

    Each v = (v_0, v_1) is an exceptional ray v = (A v_left + B v_right) / r
    with A = a v_0 + r v_1 and B = v_0 (a taken mod r), and A, B > 0 since
    every b_i >= 2 (proof and check in `test_toric`), so <u, v> >= c reads
    A s + B t >= c r.  Each s takes the largest of these lower bounds on t,
    rounded up into the lattice class t = -a s (mod r).
    """
    r, neg_a = model.v_right
    exc = [(c * r, r * v1 - neg_a * v0, v0) for (v0, v1), c in exc_bounds]

    # The scan stops at t = c_right, the least t (no later pair is minimal).
    # t exceeds c_right while some exceptional bound does; after that
    # -a s runs through every class mod r: r steps at most.
    pairs = []
    for s in range(c_left, c_left + ENUMERATION_LIMIT):
        t = c_right
        for cs, alpha, beta in exc:
            t = max(t, _ceildiv(cs - alpha * s, beta))
        t += (s * neg_a - t) % r
        pairs.append((s, t))
        if t == c_right:
            break
    else:
        raise EnumerationLimitExceeded("section enumeration exceeds the desk-scale bound")
    return _minimal_stairs(pairs)


# -- monomial ideals -------------------------------------------------------


class MonomialIdeal(NamedTuple):
    """Monomial ideal in the coordinate monoid of X, as its staircase: the
    minimal pairs (s, t) of its generators, sorted by s; ((0, 0),) is the
    unit ideal.  All comparisons are exact staircase comparisons."""

    model: ToricSurfaceModel
    stairs: tuple[Pair, ...]

    @property
    def gens(self) -> tuple[Point, ...]:
        """The minimal generators u, lexicographically sorted."""
        return tuple(sorted(map(self.model.point, self.stairs)))

    @classmethod
    def from_points(cls, model: ToricSurfaceModel, points: Iterable[Point]) -> "MonomialIdeal":
        pairs = []
        for u in points:
            u = (int(u[0]), int(u[1]))
            if not model.in_monoid(u):
                raise InvalidModel(f"generator {u} lies outside the coordinate monoid")
            pairs.append(model.pairing(u))
        return cls(model, _minimal_stairs(pairs))

    def is_unit(self) -> bool:
        return self.stairs == ((0, 0),)

    def is_zero(self) -> bool:
        return not self.stairs

    def contains_point(self, u: Point) -> bool:
        return _stairs_contain(self.stairs, *self.model.pairing(u))

    def issubset(self, other: "MonomialIdeal") -> bool:
        if self.model != other.model:
            raise InvalidModel("ideals live on different models")
        return all(_stairs_contain(other.stairs, s, t) for s, t in self.stairs)

    def sum(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.model != other.model:
            raise InvalidModel("ideals live on different models")
        return MonomialIdeal(self.model, _minimal_stairs(self.stairs + other.stairs))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.model != other.model:
            raise InvalidModel("ideals live on different models")
        pairs: list[Pair] = []
        for s1, t1 in self.stairs:
            for s2, t2 in other.stairs:
                pairs.extend(corner_stairs(self.model, max(s1, s2), max(t1, t2)))
        return MonomialIdeal(self.model, _minimal_stairs(pairs))


def pushforward_sections(model: ToricSurfaceModel, d: DivisorVector) -> MonomialIdeal:
    """pi_* O_Y(D) meet O_X as a monomial ideal, for integral D on Y.

    A monomial x^u lies in the result iff u is in the coordinate monoid
    and <u, v> + D_v >= 0 for every ray v of the resolution fan.
    """
    if not d.is_integral():
        raise NotIntegral("pushforward needs integer coefficients; round first")
    bounds = {label.name: -int(c) for label, c in d.items()}
    c_left, c_right = (max(0, bounds.pop(name, 0)) for name in (LEFT, RIGHT))
    exc = tuple((model.ray(name), c) for name, c in bounds.items())
    return MonomialIdeal(model, _section_min_gens_cached(model, c_left, c_right, exc))


def m_limiting_relative_canonical(model: ToricSurfaceModel, m: int) -> DivisorVector:
    """K_m = K_Y - (1/m) f_m, with f_m the divisor of the inverse image on Y
    of O_X(-m K_X) = {u : <u, v> >= -m on both boundary rays} (de Fernex
    and Hacon, 2009): its multiplicity along a ray v is the least <u, v>
    over the module's staircase.  That is -m on both boundary rays (the
    first and last stairs), so K_m is -1 - (1/m) min <u, v> on each
    exceptional ray v and has no boundary component.  It equals K^num when
    the Cartier index of K_X divides m, and is componentwise <= it always.
    """
    if m < 1:
        raise BadParameters("m must be a positive integer")
    gens = [model.point(pair) for pair in corner_stairs(model, -m, -m)]
    return DivisorVector(
        (label, -1 - Fraction(min(dot(u, v) for u in gens), m)) for label, v in zip(model.exceptional_labels, model.exceptional_rays)
    )
