"""Characteristic-p engine: Frobenius trace maps and test ideals.

On a normal affine toric surface R = k[S], S = sigma-dual cap M, the
maps F^e_* O(ceil((p^e - 1) W)) -> O are monomial: each is

    phi_c(x^u) = x^((u + c) / p^e)   (zero unless p^e divides u + c),

indexed by lattice points c with <c, v> >= (1 - p^e) + ceil((p^e - 1) w_v)
on both boundary rays v.  The normalization is pinned by the calibration
identity phi(x^(p-1) y^(p-1)) = 1 for the minimal twist at e = 1 on the
smooth chart, and validated against the monomial closed form for test
ideals on that chart.

The test ideal of (X, W) is the smallest nonzero ideal closed under all
such maps.  It is computed as a fixed point: seed with the module
O_X(-ceil(W)), which the lemma of `_seed` puts inside every nonzero closed
ideal, and add images under the maps of every depth until nothing new
appears.  The image of an ideal under all depth-e maps at once is one
corner module per stair (the lemma in `_trace_image`).  The monomial
description of the maps holds on every affine toric ring (Payne 2009),
so every prime p is allowed, including p dividing r.

Closure under shallow maps does not imply closure under deep ones (the
round-ups in the twist bounds are superadditive, so deep maps are not
compositions of shallow ones); the depth cutoff is proved instead.

Stable-depth lemma.  Take a stair pairing x >= 0 on a boundary ray v,
with w = w_v = n/d >= 0, q = p^e and b_v(e) = (1 - q) + ceil((q - 1) w).
Write ceil((q - 1) w) = (q - 1) w + c with c in [0, 1), a multiple of
1/d.  Then (x + b_v(e)) / q = (w - 1) + delta, where
delta = (x + 1 - w + c) / q.
  * Integer w: c = 0, and once q > |x + 1 - w| the value ceil(delta)
    is [x + 1 > w], so the ceiling is w - 1 + [x + 1 > w].
  * Fractional w: d |x + 1 - w + c| <= |d (x + 1) - n| + d - 1 < q, so
    |delta| < 1/d <= min(frac w, 1 - frac w) and
    ceil(w - 1 + delta) = floor(w).
So for every prime power q >= |d (x + 1) - n| + d the corner bound
max(0, ceil((x + b_v(e)) / q)) of `_trace_image` is w - 1 + [x + 1 > w]
or floor(w), on neither e nor p: the image of an ideal I at q is one
ideal for every prime power q at least that bound over the stairs of I
and both rays; E(I) is the least e >= 1 with p^e at least it.  Along a
staircase sorted by s the pairing s rises and t falls, and the bound
|d (x + 1) - n| + d is convex in x, so its maximum over the stairs sits
at the first or the last stair: it reads those two only (`_depth_bound`).

Semi-naive closure (Bancilhon and Ramakrishnan, 1986).  At a prime p the
closure runs rounds; each works on Delta, the stairs that the previous
round added (the seed's stairs first).  It takes the corners of every
stair of Delta at every depth e = 1..E(Delta), keeps the minimal ones
that the ideal does not already contain, and merges in their corner
modules (`_merge_stairs`).  It stops when a round adds no stair.
  * Every stair x of the result entered some Delta exactly once (a stair
    that stops being minimal never becomes minimal again), and its round
    applied the depths 1..E(Delta), which include 1..E({x}).  By the
    stable-depth lemma for the one-stair ideal {x}, deeper depths give x
    the same corner.  So the result holds the image of each of its stairs
    under every depth.  A non-minimal element adds nothing more: corner
    bounds are nondecreasing in the pairings.  By the lemma of
    `_trace_image`, the result is closed under every map of every
    depth, and it contains the seed, so it contains tau.
  * The seed lies in tau and every added monomial is the image of an
    element of the ideal, so the result lies inside tau.  Hence the
    result is tau.
  * Every round that does not stop strictly grows a monomial ideal, and
    ascending chains of ideals in the noetherian ring k[S] stop, so the
    closure terminates.

Run starts.  At depth e the corner of a stair (s, t) is
((s + c_l) // q, (t + c_r) // q), with q = p^e and c_v = ceil((q - 1) w_v)
(`_closure`).  Along Delta sorted by s, s rises and t falls, so the
s-corner does not decrease and the t-corner does not increase.  So the
first stair of a run of equal t-corner has a corner at most every other
corner of the run in both coordinates, and the run starts alone have the
minimal corners of all of Delta.  The run after the one with t-corner ct
starts at the first stair with t + c_r < ct q, which a bisection on -t
finds (`_run_corners`): past one pass over Delta to list -t, each depth
costs O(runs log |Delta|), not |Delta|.

Lockstep.  `_closure` runs a sweep's primes in groups that share the
ideal and Delta.  By the lemma all prime powers q at or above the bound
of Delta give it the same corners: a round takes them once, at the least
p^E of its primes, as it takes the bound, the -t of Delta and each
containment.  Primes p at or above the bound share them and one filter;
a smaller p adds its shallow depths q = p, ..., p^(E - 1).  Primes with
the same new corners share the next ideal and Delta, so one merge: each
prime runs its own closure's rounds, and from the seed all find floor(W).

Corollary: tau(X, W) = O_X(-floor(W)), which is J(X, W) (`multiplier`),
and the closure ends after at most two rounds.  At its stable depth a
seed stair x >= ceil(w) has the corner floor(w) on each ray (the lemma;
w - 1 + [x + 1 > w] = w for integer w), so the first round adds
O_X(-floor(W)).  That module is closed: a stair x >= floor(w) has
x + 1 - w + c > 0, so (x + b_v(e)) / q > w - 1 and its corner is at least
floor(w) at every depth.  So the second round adds nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Sequence

from .divisors import DivisorVector, _make_checked
from .errors import BadParameters, InvalidModel, NonEffectiveGamma
from .multiplier import PairSpec, multiplier_ideal
from .toric import LEFT, RIGHT, MonomialIdeal, Pair, Point, ToricSurfaceModel
from .toric import _ceildiv, _minimal_stairs, _stairs_contain, corner_stairs, section_module_min_gens

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for an int n below _MR_LIMIT."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidModel(f"a prime must be an int, got {type(n).__name__}")
    if n >= _MR_LIMIT:
        raise BadParameters(f"primality of {n} is not decided above {_MR_LIMIT}")
    if n in _MR_BASES:
        return True
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CharPContext(NamedTuple("CharPContext", [("p", int)])):
    """The characteristic p of the Frobenius trace maps."""

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, p):
        if not is_prime(p):
            raise InvalidModel(f"{p} is not prime")
        return tuple.__new__(cls, (p,))


class TraceMap(NamedTuple):
    """phi_c at depth e: x^u -> x^((u + twist) / p^e), or 0."""

    e: int
    twist: Point


def _twist_bounds(q: int, wl: Fraction, wr: Fraction) -> Pair:
    """The boundary bounds b_v = (1 - q) + ceil((q - 1) w_v) of the module
    T_e of depth-e twists, q = p^e."""
    return tuple((1 - q) + _ceildiv((q - 1) * w.numerator, w.denominator) for w in (wl, wr))


def trace_maps(pair: PairSpec, ctx: CharPContext, e: int) -> tuple[TraceMap, ...]:
    """Generators of the module T_e of depth-e trace maps twisted by lambda Z.

    Every admissible map is a monomial multiple of one of these, so
    closure under the returned maps is closure under all of them.
    """
    b_left, b_right = _twist_bounds(ctx.p**e, pair.w_left, pair.w_right)
    return tuple(TraceMap(e, c) for c in section_module_min_gens(pair.model, {LEFT: b_left, RIGHT: b_right}))


def trace_value(p: int, tm: TraceMap, u: Point):
    """phi_c applied to the single monomial x^u; None encodes 0."""
    pe = p**tm.e
    n0, n1 = u[0] + tm.twist[0], u[1] + tm.twist[1]
    if n0 % pe or n1 % pe:
        return None
    return (n0 // pe, n1 // pe)


def _trace_image(model: ToricSurfaceModel, q: int, bounds: Pair, stairs: tuple[Pair, ...]) -> tuple[Pair, ...]:
    """The ideal of the x^w with <w, v> >= ceil((<u, v> + b_v) / q) on both
    boundary rays v, over the stairs u; b = `bounds`, q = p^e.  With
    b = <c, v> it is the image under phi_c (phi_c(x^(u+m)) = x^w, m in S,
    iff q w - u - c lies in S).

    Lemma: with b = b(e), the bounds of the twist module T_e, it is the
    image under all depth-e maps at once.  x^w lies in the image of x^u S
    under some depth-e map iff q w - u = c + m with c in T_e and m in S,
    iff q w - u lies in T_e + S = T_e (`trace_maps(e)` generates the
    S-module T_e), iff <w, v> >= ceil((<u, v> + b_v(e)) / q) on both rays.

    Stair x maps to the corner module at max(0, ceil((x + b_v) / q)), which
    holds the module of every corner above it: only minimal ones expand.
    """
    corners = _minimal_stairs((max(0, _ceildiv(s + bounds[0], q)), max(0, _ceildiv(t + bounds[1], q))) for s, t in stairs)
    return _minimal_stairs(pair for corner in corners for pair in corner_stairs(model, *corner))


def trace_apply(model: ToricSurfaceModel, ctx: CharPContext, tm: TraceMap, ideal: MonomialIdeal) -> MonomialIdeal:
    """Image ideal phi(F^e_* I) for a nonzero monomial ideal I, by
    `_trace_image` at the bounds b = <c, v>."""
    if ideal.is_zero():
        raise InvalidModel("trace image of the zero ideal is not defined")
    return MonomialIdeal(model, _trace_image(model, ctx.p**tm.e, model.pairing(tm.twist), ideal.stairs))


# -- test ideals -----------------------------------------------------------


def _seed(model: ToricSurfaceModel, nl: int, dl: int, nr: int, dr: int) -> tuple[Pair, ...]:
    """The staircase of O_X(-ceil(W)), W = (nl/dl) B_left + (nr/dr) B_right,
    nl, nr >= 0: the x^a with <a, v> >= ceil(w_v) on both boundary rays v.
    It lies in tau(X, W), so the closure of it is tau(X, W).

    Lemma: every such x^a lies in every nonzero ideal I closed under the
    twisted trace maps.  Pick f != 0 in I and a monomial x^u of f; take e
    with p^e above every exponent difference in f and p^e - 1 >= <u, v> on
    both rays, and put c = p^e a - u.  Since w_v >= 0,
    ceil((p^e - 1) w_v) <= p^e ceil(w_v), so
        <c, v> = p^e <a, v> - <u, v> >= p^e ceil(w_v) - (p^e - 1)
               >= (1 - p^e) + ceil((p^e - 1) w_v),
    and phi_c is an admissible map.  It kills every other monomial of f
    (p^e does not divide its difference from u), so phi_c(f) is a nonzero
    multiple of x^a, which therefore lies in I.

    Hence O_X(-ceil(W)) lies in tau(X, W), its closure is contained in tau,
    and being a nonzero closed ideal it also contains tau (Schwede, test
    ideals in non-Q-Gorenstein rings, 2011).  Any other seed in tau gives
    the same ideal.  For W = 0 the seed is the unit ideal, and for integral
    W it is already tau, so the closure ends after one round.
    """
    return corner_stairs(model, _ceildiv(nl, dl), _ceildiv(nr, dr))


def _depth_bound(nl: int, dl: int, nr: int, dr: int, stairs: tuple[Pair, ...]) -> int:
    """The largest |d (x + 1) - n| + d over the stair pairings x of `stairs`
    on each boundary ray v, w_v = n/d (nl/dl on the left, nr/dr on the
    right).  Convex in x, which is monotone along a staircase, it peaks at
    the first or last stair (module docstring): as s0 <= s1 and t0 >= t1,
    at d (x + 2) - n for the larger x or n - d x for the smaller."""
    (s0, t0), (s1, t1) = stairs[0], stairs[-1]
    return max(dl * (s1 + 2) - nl, nl - dl * s0, dr * (t0 + 2) - nr, nr - dr * t1)


def _run_corners(twists: list[tuple[int, int, int]], delta: tuple[Pair, ...], neg_t: list[int]) -> list[Pair]:
    """The corners ((s + c_l) // q, (t + c_r) // q) of the first stair of
    each run of equal t-corner along the staircase `delta`, at every
    (q, c_l, c_r) of `twists`: their minimal corners are those of all its
    stairs (run starts, module docstring).  The next run starts at the
    first stair with t < ct q - c_r, a bisection on `neg_t`, the -t of
    `delta`."""
    n = len(delta)
    corners = []
    for q, cl, cr in twists:
        i = 0
        while i < n:
            s, t = delta[i]
            ct = (t + cr) // q
            corners.append(((s + cl) // q, ct))
            i = bisect_right(neg_t, cr - ct * q, i + 1)
    return corners


def _merge_stairs(stairs: tuple[Pair, ...], added: list[Pair]) -> tuple[tuple[Pair, ...], tuple[Pair, ...]]:
    """The staircase of `stairs` and the sorted pairs `added`, and the stairs
    of it only `added` holds (the next Delta), in one walk: a pair is a stair
    iff its t is below every earlier t; a pair on both sides is from `stairs`."""
    merged, fresh, best_t, i, n = [], [], math.inf, 0, len(stairs)
    for pair in added:
        while i < n and stairs[i] <= pair:
            if stairs[i][1] < best_t:
                best_t = stairs[i][1]
                merged.append(stairs[i])
            i += 1
        if pair[1] < best_t:
            best_t = pair[1]
            merged.append(pair)
            fresh.append(pair)
    while i < n and stairs[i][1] >= best_t:
        i += 1
    return (*merged, *stairs[i:]), tuple(fresh)


class TestIdealResult(NamedTuple):
    ideal: MonomialIdeal
    depth_used: int


def _closure(model: ToricSurfaceModel, primes: Sequence[int], nl: int, dl: int, nr: int, dr: int, seed: tuple[Pair, ...]) -> list[tuple[tuple[Pair, ...], int]]:
    """Close the staircase `seed` at each of `primes` in lockstep rounds
    (module docstring), w_left = nl/dl and w_right = nr/dr; a group is
    (stairs, Delta sorted by s, primes).  At b_v(e) the corner of
    `_trace_image` is floor((x + ceil((q - 1) w_v)) / q), as x, w_v >= 0.
    A prime looks up only its minimal corners: sorted, each has t below
    every earlier t.  Returns per prime the staircase and the depth used,
    the largest E of its rounds."""
    depths, results = [1] * len(primes), [None] * len(primes)
    groups = [(seed, seed, range(len(primes)))] if primes else []
    twist = lambda q: (q, -((1 - q) * nl // dl), -((1 - q) * nr // dr))  # (q, c_l, c_r)
    while groups:
        stairs, delta, members = groups.pop()
        bound, neg_t = _depth_bound(nl, dl, nr, dr, delta), [-t for _, t in delta]
        deep, by_shallow, least = [], {}, math.inf  # primes with E = 1; shallow depths q < bound -> primes; least p^E >= bound
        for k in members:
            q = p = primes[k]
            if p < bound:
                shallow = []
                while q < bound:
                    shallow.append(q)
                    q *= p
                if len(shallow) >= depths[k]:
                    depths[k] = len(shallow) + 1
                by_shallow.setdefault(tuple(shallow), []).append(k)
            else:
                deep.append(k)
            if q < least:
                least = q
        if deep:
            by_shallow[()] = deep
        stable = _minimal_stairs(_run_corners([twist(least)], delta, neg_t))
        contained, by_new = {}, {}  # corner -> in the ideal; new corners -> their primes
        for shallow, ks in by_shallow.items():
            new, best_t = [], math.inf
            for corner in sorted([*_run_corners([twist(q) for q in shallow], delta, neg_t), *stable]) if shallow else stable:
                if corner[1] < best_t:
                    best_t = corner[1]
                    if corner not in contained:
                        contained[corner] = _stairs_contain(stairs, *corner)
                    if not contained[corner]:
                        new.append(corner)
            by_new.setdefault(tuple(new), []).extend(ks)
        for new, ks in by_new.items():
            grown, fresh = _merge_stairs(stairs, sorted([pair for c in new for pair in corner_stairs(model, *c)]))
            if fresh:
                groups.append((grown, fresh, ks))
            else:
                for k in ks:
                    results[k] = (stairs, depths[k])
    return results


def _sweep(pair: PairSpec, primes: Sequence[int]) -> list[tuple[tuple[Pair, ...], int]]:
    """`test_ideal_sweep` at primes already checked."""
    w = (pair.w_left.numerator, pair.w_left.denominator, pair.w_right.numerator, pair.w_right.denominator)
    return _closure(pair.model, primes, *w, _seed(pair.model, *w))


def test_ideal_sweep(pair: PairSpec, primes: Sequence[int]) -> list[tuple[tuple[Pair, ...], int]]:
    """(staircase of tau(X, lambda Z), depth used) at each of `primes`, in
    order, all checked by `CharPContext` first, by one lockstep `_closure`."""
    return _sweep(pair, [CharPContext(p).p for p in primes])


def test_ideal_detailed(pair: PairSpec, ctx: CharPContext) -> TestIdealResult:
    """tau(X, lambda Z) with the largest Frobenius depth its closure used:
    a toric pair, validated by `PairSpec`, is its model and two boundary
    coefficients."""
    ((stairs, depth),) = _sweep(pair, (ctx.p,))
    return TestIdealResult(MonomialIdeal(pair.model, stairs), depth)


def test_ideal(pair: PairSpec, ctx: CharPContext) -> MonomialIdeal:
    """tau(X, lambda Z): the smallest nonzero ideal J with
    phi(F^e_* J) included in J for every twisted trace map phi."""
    return test_ideal_detailed(pair, ctx).ideal


def test_ideal_of_divisor(model: ToricSurfaceModel, ctx: CharPContext, w: DivisorVector) -> MonomialIdeal:
    """tau(X, W) for an effective boundary Q-divisor W: the pair (X, 1 * W)."""
    return test_ideal(PairSpec(model, w), ctx)


def boundary_containment_check(pair: PairSpec, ctx: CharPContext, gamma: DivisorVector) -> bool:
    """tau(X, Gamma + lambda Z) included in tau(X, lambda Z), for effective
    Gamma with K + Gamma Q-Cartier (automatic on these models)."""
    if not gamma.is_effective():
        raise NonEffectiveGamma("Gamma must be effective")
    return test_ideal_of_divisor(pair.model, ctx, pair.scaled_z() + gamma).issubset(test_ideal(pair, ctx))


def numerical_containment_check(pair: PairSpec, ctx: CharPContext) -> bool:
    """tau(X, lambda Z) included in the trace image of the numerical
    multiplier module (realized as sections of ceil(K^num - pi* lambda Z))."""
    return test_ideal(pair, ctx).issubset(multiplier_ideal(pair))
