import math
import random
from fractions import Fraction

import pytest

from conftest import brute_ideal_points, brute_test_ideal
from surfideals import frobenius
from surfideals.compare import CATALOG_R_MAX, PRIMES_DEFAULT, catalog_entries, compare_pair
from surfideals.divisors import DivisorVector
from surfideals.errors import BadParameters, InvalidModel, NonEffectiveGamma
from surfideals.frobenius import (
    CharPContext,
    _closure,
    _depth_bound,
    _merge_stairs,
    _run_corners,
    _seed,
    _stable_depth,
    _trace_image,
    _twist_bounds,
    boundary_containment_check,
    is_prime,
    numerical_containment_check,
    test_ideal as tau,
    test_ideal_detailed as tau_detailed,
    test_ideal_sweep as tau_sweep,
    trace_apply,
    trace_maps,
    trace_value,
)
from surfideals.multiplier import PairSpec, multiplier_ideal
from surfideals.toric import LEFT, RIGHT, MonomialIdeal, _minimal_stairs, corner_stairs, hj_resolve

SMOOTH = hj_resolve(1, 1)
A1 = hj_resolve(2, 1)
THIRD = hj_resolve(3, 1)


def test_context_validation():
    with pytest.raises(InvalidModel):
        CharPContext(4)


@pytest.mark.parametrize("p", [2.0, 2.5, True])
def test_a_prime_must_be_an_int(p):
    # 2.0 == 2 passes a membership test, and a float would reach the closure
    for check in (is_prime, CharPContext):
        with pytest.raises(InvalidModel) as exc:
            check(p)
        assert str(exc.value) == f"a prime must be an int, got {type(p).__name__}"


def test_is_prime_against_trial_division():
    for n in range(10**4):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))), n
    # strong pseudoprimes to the prime bases up to 7 and up to 17
    assert not is_prime(3215031751) and not is_prime(341550071728321)
    assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)
    with pytest.raises(BadParameters):
        is_prime(3_317_044_064_679_887_385_961_981)


def test_calibration_identity_on_smooth_chart():
    # the minimal twist at e=1 sends x^(p-1) y^(p-1) to 1 and x to 0
    for p in (2, 3, 5):
        ctx = CharPContext(p)
        maps = trace_maps(PairSpec(SMOOTH, DivisorVector.zero()), ctx, 1)
        assert len(maps) == 1
        tm = maps[0]
        assert tm.twist == (1 - p, 1 - p)
        assert trace_value(p, tm, (p - 1, p - 1)) == (0, 0)
        assert trace_value(p, tm, (1, 0)) is None


def test_trace_on_unit_ideal_is_unit():
    ctx = CharPContext(2)
    tm = trace_maps(PairSpec(SMOOTH, DivisorVector.zero()), ctx, 1)[0]
    assert trace_apply(SMOOTH, ctx, tm, MonomialIdeal(SMOOTH, ((0, 0),))).is_unit()


def test_trace_image_of_a1_maximal_ideal():
    # all admissible depth-1 twists at p=3 push the maximal ideal onto the
    # whole ring: computational reflection of F-regularity
    ctx = CharPContext(3)
    maximal = MonomialIdeal.from_points(A1, [(1, 0), (1, 1), (1, 2)])
    maps = trace_maps(PairSpec(A1, DivisorVector.zero()), ctx, 1)
    assert maps, "the twist module must be nonzero"
    image = MonomialIdeal(A1, ())
    combined = maximal
    for tm in maps:
        img = trace_apply(A1, ctx, tm, maximal)
        combined = combined.sum(img)
    assert combined.is_unit()


def test_trace_image_full_not_fundamental_domain_truncation():
    # image of (x^(1,1)) on the A_1 chart under twist (0,-1), p=2: the two
    # minimal values are mutually incomparable, so both must be produced
    ctx = CharPContext(2)
    from surfideals.frobenius import TraceMap

    tm = TraceMap(1, (0, -1))
    ideal = MonomialIdeal.from_points(A1, [(1, 1)])
    image = trace_apply(A1, ctx, tm, ideal)
    assert image.gens == ((1, 0), (1, 1))


def test_depth_image_is_the_sum_over_trace_maps():
    # the lemma of _trace_image: one corner per generator at the
    # bounds of T_e gives the image under every depth-e map at once
    rng = random.Random(44)
    models = [SMOOTH] + [hj_resolve(r, a) for r in range(2, 13) for a in range(1, r) if math.gcd(r, a) == 1]
    box = [(w0, w1) for w0 in range(-3, 9) for w1 in range(-3, 9)]
    for model in models:
        monoid = [(i, j) for i in range(9) for j in range(9) if model.in_monoid((i, j))]
        for p in (2, 3, 5):
            ctx = CharPContext(p)
            for e in (1, 2, 3):
                wl, wr = (Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(2))
                w = model.divisor({LEFT: wl, RIGHT: wr})
                ideal = MonomialIdeal.from_points(model, rng.sample(monoid, rng.randint(1, 3)))
                q = p**e
                image = MonomialIdeal(model, _trace_image(model, q, _twist_bounds(q, wl, wr), ideal.stairs))
                maps = trace_maps(PairSpec(model, w), ctx, e)
                expected = MonomialIdeal(model, ())
                for tm in maps:
                    expected = expected.sum(trace_apply(model, ctx, tm, ideal))
                assert image == expected, (model, p, e, w, ideal.gens)
                # by definition, x^w is in the image iff q w - c - g lies in S
                # for a twist c and a generator g of the ideal
                shifts = [(tm.twist[0] + g[0], tm.twist[1] + g[1]) for tm in maps for g in ideal.gens]
                for w0, w1 in box:
                    reached = any(model.in_monoid((q * w0 - d0, q * w1 - d1)) for d0, d1 in shifts)
                    assert image.contains_point((w0, w1)) == reached, (model, p, e, w, ideal.gens, (w0, w1))


def test_trace_apply_preserves_inclusions():
    rng = random.Random(12)
    ctx = CharPContext(3)
    w = A1.boundary_divisor().scale(Fraction(1, 2))
    maps = [tm for e in (1, 2) for tm in trace_maps(PairSpec(A1, w), ctx, e)]
    monoid = [(i, j) for i in range(0, 5) for j in range(0, 2 * 4 + 1) if A1.in_monoid((i, j))]
    for _ in range(15):
        small = MonomialIdeal.from_points(A1, rng.sample(monoid, 2))
        big = small.sum(MonomialIdeal.from_points(A1, rng.sample(monoid, 2)))
        for tm in maps:
            assert trace_apply(A1, ctx, tm, small).issubset(trace_apply(A1, ctx, tm, big))


def test_smooth_chart_closed_form():
    z = SMOOTH.divisor({RIGHT: 1})
    for p in (2, 3, 5):
        assert tau(PairSpec(SMOOTH, z, Fraction(3, 2)), CharPContext(p)).gens == ((1, 0),)
        assert tau(PairSpec(SMOOTH, z, Fraction(1, 2)), CharPContext(p)).is_unit()


def test_quotients_with_no_divisor_are_f_regular():
    assert tau(PairSpec(A1, DivisorVector.zero(), 0), CharPContext(3)).is_unit()
    assert tau(PairSpec(THIRD, DivisorVector.zero(), 0), CharPContext(5)).is_unit()


def test_wild_primes_agree_with_multiplier_ideal():
    # p | r is in scope: tau = J for toric pairs in every characteristic
    for model, p in ((A1, 2), (THIRD, 3)):
        t = tau(PairSpec(model, DivisorVector.zero(), 0), CharPContext(p))
        assert t == multiplier_ideal(PairSpec(model, DivisorVector.zero(), Fraction(0)))
        assert t.is_unit()


def test_seed_independence_over_catalog():
    # every seed inside tau closes up to tau, wild primes included: one
    # stair of the deeper module O_X(-ceil(W) - B) gives the same ideal
    models = [hj_resolve(r, a) for r in range(2, CATALOG_R_MAX + 1) for a in range(1, r) if math.gcd(r, a) == 1]
    for model in models:
        for lam in (Fraction(1, 2), Fraction(5, 4)):
            deeper = _seed(model, *_nd(lam + 1, lam + 1))[:1]
            closed = _closure(model, (2, 3), *_nd(lam, lam), deeper)
            for p, (stairs, _) in zip((2, 3), closed):
                detail = tau_detailed(PairSpec(model, model.boundary_divisor(), lam), CharPContext(p))
                assert detail.ideal.stairs == stairs, (model, lam, p)
                assert detail.depth_used >= 1


def _merges(monkeypatch):
    """The list to which every later `_merge_stairs` call appends its
    arguments and its result."""
    merges = []

    def merge(stairs, added):
        merged = real(stairs, added)
        merges.append((stairs, tuple(added), merged))
        return merged

    real = frobenius._merge_stairs
    monkeypatch.setattr(frobenius, "_merge_stairs", merge)
    return merges


def test_sweep_agrees_with_the_one_prime_path(monkeypatch):
    # the sweep closes a pair's seed at all its primes in lockstep; every
    # staircase and depth it returns is the one test_ideal_detailed computes
    # alone (tau does not depend on p on these pairs, the depth does)
    distinct = {}
    for entry in catalog_entries():
        pair = entry.pair()
        distinct.setdefault((pair.model, pair.w_left, pair.w_right), pair)
    cases = [(pair, PRIMES_DEFAULT) for pair in distinct.values()]
    assert len(cases) == 225
    rng = random.Random(97)
    primes = [p for p in range(2, 32) if is_prime(p)]
    wild = 0
    for _ in range(300):
        r = rng.randint(2, 40)
        model = hj_resolve(r, rng.choice([a for a in range(1, r) if math.gcd(r, a) == 1]))
        wl, wr = (Fraction(rng.randint(0, 40), rng.randint(1, 12)) for _ in range(2))
        sweep = rng.sample(primes, 3) + [p for p in primes if r % p == 0][:1]
        wild += r % sweep[-1] == 0
        cases.append((PairSpec(model, model.divisor({LEFT: wl, RIGHT: wr})), sweep))
    assert wild >= 100
    merges = _merges(monkeypatch)
    for pair, sweep in cases:
        alone, paths = [], set()
        for p in sweep:
            merges.clear()
            alone.append(tau_detailed(pair, CharPContext(p)))
            paths.add(tuple(merges))
        # from the pair's own seed every prime's only new corner is
        # (floor w_left, floor w_right) (the corollary in the frobenius
        # module docstring), so all primes merge alike and no group splits
        assert len(paths) == 1, (pair, sweep)
        assert tau_sweep(pair, sweep) == [(d.ideal.stairs, d.depth_used) for d in alone], (pair, sweep)
    # the closure of a seed outside tau depends on p: primes whose one-prime
    # runs merge differently must leave their group on the way (a split),
    # and each still gets the staircase and depth of its own run
    split = 0
    for _ in range(300):
        r = rng.randint(2, 40)
        model = hj_resolve(r, rng.choice([a for a in range(1, r) if math.gcd(r, a) == 1]))
        w = (rng.randint(0, 40), rng.randint(1, 12), rng.randint(0, 40), rng.randint(1, 12))
        sweep = rng.sample(primes, 3) + [p for p in primes if r % p == 0][:1]
        seed = corner_stairs(model, rng.randint(0, 5), rng.randint(0, 5))
        alone, paths = [], set()
        for p in sweep:
            merges.clear()
            alone += _closure(model, (p,), *w, seed)
            paths.add(tuple(merges))
        split += len(paths) > 1
        assert _closure(model, sweep, *w, seed) == alone, (model, sweep, w, seed)
    assert split >= 80
    # every prime is checked before any closure runs
    calls = []
    monkeypatch.setattr(frobenius, "_closure", lambda *args: calls.append(args))
    with pytest.raises(InvalidModel):
        compare_pair(PairSpec(SMOOTH, SMOOTH.boundary_divisor(), Fraction(1, 2)), primes=(2, 4))
    assert calls == []


def test_a_group_ends_when_its_merge_adds_no_fresh_stair(monkeypatch):
    # on A_1 with W = B_right the seed's corner (0, 1) is not below a stair,
    # but its module's stairs are the seed's own: the merge adds no fresh
    # stair, and every prime of the group stops with the seed
    pair = PairSpec(A1, A1.divisor({RIGHT: 1}))
    merges = _merges(monkeypatch)
    sweep = tau_sweep(pair, PRIMES_DEFAULT)
    seed = _seed(A1, 0, 1, 1, 1)
    assert [(stairs, added, fresh) for stairs, added, (_, fresh) in merges] == [(seed, seed, ())]
    assert sweep == [(d.ideal.stairs, d.depth_used) for d in (tau_detailed(pair, CharPContext(p)) for p in PRIMES_DEFAULT)]
    assert {stairs for stairs, _ in sweep} == {seed}


def test_merge_stairs_against_minimal_stairs():
    # the walk gives the staircase of the sum that _minimal_stairs gives on
    # the concatenation, and as fresh stairs exactly those not in `stairs`
    rng = random.Random(58)
    for model in [SMOOTH, A1, THIRD, hj_resolve(7, 3), hj_resolve(12, 5), hj_resolve(101, 37)]:
        monoid = [(i, j) for i in range(12) for j in range(12) if model.in_monoid((i, j))]
        for _ in range(60):
            stairs = MonomialIdeal.from_points(model, rng.sample(monoid, rng.randint(1, 6))).stairs
            added = sorted(model.pairing(u) for u in rng.sample(monoid, rng.randint(0, 8)))
            merged = _minimal_stairs(stairs + tuple(added))
            fresh = tuple(pair for pair in merged if pair not in stairs)
            assert _merge_stairs(stairs, added) == (merged, fresh), (model, stairs, added)


def test_seed_is_tau_for_integral_w():
    # the seed O_X(-ceil(W)) lies in tau, and for integral W it is tau
    for model in (SMOOTH, A1, THIRD, hj_resolve(7, 3), hj_resolve(12, 5)):
        for wl, wr in ((0, 0), (1, 0), (2, 3), (5, 1)):
            pair = PairSpec(model, model.divisor({LEFT: wl, RIGHT: wr}))
            for p in (2, 3, 7):
                assert tau(pair, CharPContext(p)) == MonomialIdeal(model, _seed(model, wl, 1, wr, 1)), (model, wl, wr, p)


def _nd(wl, wr):
    """The integers nl, dl, nr, dr of w_left = nl/dl and w_right = nr/dr,
    as `_seed`, `_depth_bound` and `_closure` take them."""
    return wl.numerator, wl.denominator, wr.numerator, wr.denominator


def test_stable_depth_lemma():
    # past E(I) = _stable_depth the depth-e image of I does not depend on e
    rng = random.Random(55)
    models = [SMOOTH] + [hj_resolve(r, a) for r in range(2, 31) for a in range(1, r) if math.gcd(r, a) == 1]
    primes = [p for p in range(2, 32) if all(p % d for d in range(2, p))]
    for model in models:
        monoid = [(i, j) for i in range(9) for j in range(9) if model.in_monoid((i, j))]
        for p in primes:
            wl, wr = (Fraction(rng.randint(0, 36), rng.randint(1, 12)) for _ in range(2))
            ideal = MonomialIdeal.from_points(model, rng.sample(monoid, rng.randint(1, 3)))
            stable = _stable_depth(p, _depth_bound(*_nd(wl, wr), ideal.stairs))

            def image(e):
                q = p**e
                return _trace_image(model, q, _twist_bounds(q, wl, wr), ideal.stairs)

            at_stable = image(stable)
            for e in range(stable + 1, stable + 8):
                assert image(e) == at_stable, (model, p, wl, wr, ideal.gens, stable, e)


def _all_stairs_bound(wl, wr, stairs):
    """The stable-depth bound as a maximum over every stair: the oracle of
    `_depth_bound`, which reads the first and last stairs only."""
    return max(abs(w.denominator * (x + 1) - w.numerator) + w.denominator for pair in stairs for x, w in zip(pair, (wl, wr)))


def test_depth_bound_reads_the_end_stairs():
    # |d (x + 1) - n| + d is convex in x and x is monotone along a staircase,
    # so the end stairs attain the maximum over all stairs
    rng = random.Random(56)
    models = [SMOOTH] + [hj_resolve(r, a) for r in range(2, 31) for a in range(1, r) if math.gcd(r, a) == 1]
    for model in models:
        monoid = [(i, j) for i in range(41) for j in range(41) if model.in_monoid((i, j))]
        for _ in range(10):
            stairs = MonomialIdeal.from_points(model, rng.sample(monoid, rng.randint(1, 8))).stairs
            wl, wr = (Fraction(rng.randint(0, 200), rng.randint(1, 40)) for _ in range(2))
            bound = _all_stairs_bound(wl, wr, stairs)
            assert _depth_bound(*_nd(wl, wr), stairs) == bound, (model, stairs, wl, wr)
            p, e = rng.choice((2, 3, 5, 7, 31)), 1
            while p**e < bound:
                e += 1
            assert _stable_depth(p, bound) == e, (model, stairs, wl, wr, p)


def test_run_start_corners_have_the_minimal_corners_of_every_stair():
    # along a staircase the s-corner does not fall and the t-corner does not
    # rise, so the first stair of each run of equal t-corner has the least
    # corner of its run: at every depth 1..E the run starts give the minimal
    # corners that mapping every stair gives (the comprehension below)
    rng = random.Random(57)
    models = [SMOOTH] + [hj_resolve(r, a) for r in range(2, 31) for a in range(1, r) if math.gcd(r, a) == 1]
    primes = [p for p in range(2, 32) if is_prime(p)]
    for model in models + [hj_resolve(10007, 2)]:
        staircase = corner_stairs(model, rng.randint(0, 20), rng.randint(0, 20))
        for _ in range(4 if model.r < 10007 else 40):
            stairs = tuple(sorted(rng.sample(staircase, rng.randint(1, min(len(staircase), 60)))))
            wl, wr = (Fraction(rng.randint(0, 40), rng.randint(1, 12)) for _ in range(2))
            p = rng.choice(primes)
            twists, neg_t = [], [-t for _, t in stairs]
            for e in range(1, _stable_depth(p, _depth_bound(*_nd(wl, wr), stairs)) + 1):
                q = p**e
                cl, cr = math.ceil((q - 1) * wl), math.ceil((q - 1) * wr)
                twists.append((q, cl, cr))
                every = _minimal_stairs(((s + cl) // q, (t + cr) // q) for s, t in stairs)
                assert _minimal_stairs(_run_corners([(q, cl, cr)], stairs, neg_t)) == every, (model, stairs, wl, wr, p, e)
            every = _minimal_stairs(((s + cl) // q, (t + cr) // q) for q, cl, cr in twists for s, t in stairs)
            assert _minimal_stairs(_run_corners(twists, stairs, neg_t)) == every, (model, stairs, wl, wr, p)


def test_adaptive_depth_reaches_the_fixed_point():
    # depths 1..4 alone leave the ideal short of closed: a round must go
    # to the stable depth of its new stairs before the ideal is the unit
    model = hj_resolve(11, 1)
    detail = tau_detailed(PairSpec(model, model.boundary_divisor(), Fraction(2, 3)), CharPContext(2))
    assert detail.ideal.is_unit()
    assert detail.depth_used > 4


def test_large_index_closure_stops_at_the_stable_depth():
    # ord_5 mod 5006 is 2502; the stable depth of this pair is a few steps
    model = hj_resolve(2503, 2)
    detail = tau_detailed(PairSpec(model, model.boundary_divisor(), Fraction(1, 2)), CharPContext(5))
    assert detail.ideal.is_unit()
    assert detail.depth_used <= 10


def test_monotone_in_lambda():
    model = hj_resolve(5, 3)
    z = model.boundary_divisor()
    ctx = CharPContext(7)
    lams = [Fraction(k, 4) for k in range(0, 9)]
    ideals = [tau(PairSpec(model, z, lam), ctx) for lam in lams]
    for smaller_lam, larger_lam in zip(ideals, ideals[1:]):
        assert larger_lam.issubset(smaller_lam)


def test_boundary_containment_examples():
    ctx = CharPContext(3)
    z = SMOOTH.divisor({RIGHT: 1})
    assert boundary_containment_check(PairSpec(SMOOTH, z, 1), ctx, DivisorVector.zero())
    gamma = SMOOTH.divisor({LEFT: "1/2"})
    assert boundary_containment_check(PairSpec(SMOOTH, z, 1), ctx, gamma)
    # both sides computable by the closed form: tau((1/2) div y + div x) = (x)
    both = tau(PairSpec(SMOOTH, z + gamma), ctx)
    assert both.gens == ((1, 0),)
    with pytest.raises(NonEffectiveGamma):
        boundary_containment_check(PairSpec(SMOOTH, z, 1), ctx, SMOOTH.divisor({LEFT: -1}))


def test_boundary_containment_on_quotient():
    model = hj_resolve(5, 2)
    ctx = CharPContext(7)
    gamma = model.divisor({LEFT: "3/2", RIGHT: "1/3"})
    assert boundary_containment_check(PairSpec(model, model.boundary_divisor(), Fraction(1, 2)), ctx, gamma)


def test_numerical_containment():
    for p in (3, 5):
        assert numerical_containment_check(PairSpec(A1, DivisorVector.zero(), 0), CharPContext(p))
    z = SMOOTH.divisor({RIGHT: 2, LEFT: 1})
    for lam in (Fraction(1, 2), Fraction(5, 6)):
        assert numerical_containment_check(PairSpec(SMOOTH, z, lam), CharPContext(3))
        # on the smooth chart both sides agree exactly
        ti = tau(PairSpec(SMOOTH, z, lam), CharPContext(3))
        assert ti == multiplier_ideal(PairSpec(SMOOTH, z, lam))


def test_smooth_chart_snc_grid():
    # closed form (x^floor(lam b) y^floor(lam c)) over a small grid, two primes
    for p in (2, 5):
        ctx = CharPContext(p)
        for b in (0, 1, 3):
            for c in (0, 2):
                z = SMOOTH.divisor({RIGHT: b, LEFT: c})
                for lam in (Fraction(1, 2), Fraction(4, 3)):
                    expected = ((math.floor(lam * b), math.floor(lam * c)),)
                    assert tau(PairSpec(SMOOTH, z, lam), ctx).gens == expected


def test_closure_against_brute_force_oracle():
    # tau by the box oracle of conftest (twist generators by raw search, no
    # corner formula, no stable depth) equals production on the box.  With
    # w_v <= 8 an image of a stair x has its stairs within (x + 1) / 2 + 8 + r
    # on each ray, so a box of 32 holds every ideal on the way for r <= 7.
    rng = random.Random(71)
    models = [SMOOTH] + [hj_resolve(r, a) for r in range(2, 8) for a in range(1, r) if math.gcd(r, a) == 1]
    box = 32
    for model in models:
        box_points = [u for u in brute_ideal_points(model, [(0, 0)], box) if max(model.pairing(u)) <= box]
        for p in (2, 3, 5):
            for _ in range(3):
                wl, wr = (Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(2))
                ideal = tau(PairSpec(model, model.divisor({LEFT: wl, RIGHT: wr})), CharPContext(p))
                got = {u for u in box_points if ideal.contains_point(u)}
                assert got == brute_test_ideal(model, p, wl, wr, box), (model, p, wl, wr, ideal.gens)


def _random_pairs(seed, count, r_max):
    """(model, p, wl, wr) with r up to r_max, p at a prime dividing r in a
    fourth of the r with a prime factor below 48, and boundary
    coefficients with denominators <= 12."""
    rng = random.Random(seed)
    primes = [p for p in range(2, 48) if is_prime(p)]
    for _ in range(count):
        r = rng.randint(2, r_max)
        a = rng.choice([a for a in range(1, r) if math.gcd(r, a) == 1])
        wild = [p for p in primes if r % p == 0]
        p = rng.choice(wild) if wild and rng.random() < 0.25 else rng.choice(primes)
        wl, wr = (Fraction(rng.randint(0, 40), rng.randint(1, 12)) for _ in range(2))
        yield hj_resolve(r, a), p, wl, wr


def test_closed_form_oracle():
    # tau(X, W) = O_X(-floor(W)) on toric pairs (Blickle 2004; corollary in
    # the frobenius module docstring): one corner_stairs call, independent
    # of the closure, so r reaches the thousands
    for model, p, wl, wr in _random_pairs(83, 300, 3000):
        pair = PairSpec(model, model.divisor({LEFT: wl, RIGHT: wr}))
        expected = MonomialIdeal(model, corner_stairs(model, math.floor(wl), math.floor(wr)))
        assert tau(pair, CharPContext(p)) == expected, (model, p, wl, wr)


def test_floor_module_is_closed():
    # the second round of the closure adds nothing: every depth-e image of
    # O_X(-floor(W)), e = 1..E with E its stable depth, lies inside it
    for model, p, wl, wr in _random_pairs(84, 200, 1000):
        stairs = corner_stairs(model, math.floor(wl), math.floor(wr))
        module = MonomialIdeal(model, stairs)
        for e in range(1, _stable_depth(p, _depth_bound(*_nd(wl, wr), stairs)) + 1):
            q = p**e
            image = MonomialIdeal(model, _trace_image(model, q, _twist_bounds(q, wl, wr), stairs))
            assert image.issubset(module), (model, p, wl, wr, e)
