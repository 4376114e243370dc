import json
import math
import random
from fractions import Fraction

import pytest

from conftest import brute_ideal_points
from surfideals import compare, frobenius
from surfideals.compare import (
    EQUAL,
    INCOMPARABLE,
    MULTIPLIER_LARGER,
    PRIMES_DEFAULT,
    TEST_LARGER,
    CatalogEntry,
    PrimeSweep,
    PrimeVerdict,
    _classify,
    catalog_entries,
    compare_catalog,
    compare_entry,
    compare_pair,
)
from surfideals.divisors import DivisorVector
from surfideals.errors import InvalidModel
from surfideals.frobenius import CharPContext, boundary_containment_check
from surfideals.multiplier import PairSpec, multiplier_ideal
from surfideals.toric import RIGHT, MonomialIdeal, _minimal_stairs, corner_stairs, hj_resolve


def test_catalog_shape():
    entries = catalog_entries()
    models = {(e.r, e.a) for e in entries}
    assert len(models) == sum(1 for r in range(2, 13) for a in range(1, r) if math.gcd(r, a) == 1)
    assert len(models) == 45
    assert len(entries) == 45 * 10
    assert len({e.entry_id for e in entries}) == len(entries)


def test_catalog_equals_the_per_entry_reference():
    # one report per distinct (model, W), given under each entry's own id,
    # is what compare_entry computes entry by entry
    reference = [compare_entry(e, (2, 3)).to_dict() for e in catalog_entries()]
    assert [rep.to_dict() for rep in compare_catalog((2, 3))] == reference


def test_catalog_maps_once_over_its_distinct_pairs(monkeypatch):
    # the catalog's 450 entries are 225 distinct pairs: (X, 0) six times per model
    pairs = []

    def recording(pair, primes):
        pairs.append(pair)
        return compare_pair(pair, primes)

    monkeypatch.setattr(compare, "compare_pair", recording)
    assert len(compare_catalog((2,))) == 450
    assert len(pairs) == 225
    assert len({(p.model.r, p.model.a, p.w_left, p.w_right) for p in pairs}) == 225


def test_smooth_pair_agrees_everywhere():
    model = hj_resolve(1, 1)
    pair = PairSpec(model, model.divisor({RIGHT: 3}), Fraction(5, 6))
    report = compare_pair(pair, primes=(2, 3, 5, 7))
    assert report.all_equal()
    assert report.stable_from_prime == 2
    assert all(v.verdict == "equal" for v in report.verdicts)


def test_an_empty_sweep_gives_an_empty_report():
    pair = PairSpec(hj_resolve(5, 2), hj_resolve(5, 2).boundary_divisor(), Fraction(2, 3))
    assert frobenius.test_ideal_sweep(pair, ()) == []
    report = compare_pair(pair, primes=())
    assert report.verdicts == () and report.stable_from_prime is None and report.all_equal()
    assert report.multiplier_gens == multiplier_ideal(pair).gens


def test_a_sweep_checks_its_primes_once_and_lends_its_equal_verdicts(monkeypatch):
    # a `PrimeSweep` sorts and checks its primes when built; `compare_pair`
    # takes it as checked and gives an equal prime the sweep's own verdict
    sweep = PrimeSweep((7, 2, 5))
    assert sweep.primes == (2, 5, 7) and sweep.equal == tuple(PrimeVerdict(p, EQUAL) for p in (2, 5, 7))
    assert PrimeSweep(sweep) is sweep
    with pytest.raises(InvalidModel, match="4 is not prime"):
        PrimeSweep((9, 4))
    pair = PairSpec(SMOOTH, SMOOTH.boundary_divisor(), Fraction(5, 4))
    checked = []
    for module in (compare, frobenius):
        monkeypatch.setattr(module, "CharPContext", lambda p: checked.append(p))
    monkeypatch.setattr(frobenius, "_closure", _shrunk_closure((5,)))
    report = compare_pair(pair, sweep)
    assert checked == [] and [v.verdict for v in report.verdicts] == [EQUAL, MULTIPLIER_LARGER, EQUAL]
    assert report.verdicts[0] is sweep.equal[0] and report.verdicts[2] is sweep.equal[2]
    assert report.verdicts[1].p == 5 and report.verdicts[1].test_gens is not None


def test_a_bad_prime_is_refused_before_any_closure(monkeypatch):
    calls = []
    monkeypatch.setattr(frobenius, "_closure", lambda *args: calls.append(args))
    pair = PairSpec(SMOOTH, SMOOTH.boundary_divisor(), Fraction(1, 2))
    for call in (lambda: compare_pair(pair, primes=(2, 4)), lambda: compare_catalog((3, 4))):
        with pytest.raises(InvalidModel, match="4 is not prime"):
            call()
    assert calls == []


def test_a1_zero_pair_unit_on_odd_primes():
    model = hj_resolve(2, 1)
    pair = PairSpec(model, DivisorVector.zero(), Fraction(0))
    report = compare_pair(pair, primes=(2, 3, 5, 7, 11, 13))
    by_p = {v.p: v.verdict for v in report.verdicts}
    assert by_p[2] == "equal"
    assert all(by_p[p] == "equal" for p in (3, 5, 7, 11, 13))
    assert report.multiplier_gens == ((0, 0),)
    assert report.stable_from_prime == 2


def test_checks_are_recorded():
    entry = CatalogEntry(5, 2, "boundary", Fraction(2, 3))
    report = compare_entry(entry, primes=(2, 3))
    assert [v.p for v in report.verdicts] == [2, 3]
    model = entry.model()
    gamma = model.boundary_divisor().scale(Fraction(1, 2))
    for v in report.verdicts:
        assert v.verdict == "equal"
        assert boundary_containment_check(entry.pair(), CharPContext(v.p), gamma)


def test_report_dict_is_deterministic():
    entry = CatalogEntry(7, 3, "boundary", Fraction(5, 4))
    a = json.dumps(compare_entry(entry, primes=(2, 5)).to_dict(), sort_keys=True)
    b = json.dumps(compare_entry(entry, primes=(2, 5)).to_dict(), sort_keys=True)
    assert a == b


def test_catalog_spot_checks_agree():
    for entry in (
        CatalogEntry(3, 1, "boundary", Fraction(2, 3)),
        CatalogEntry(8, 3, "boundary", Fraction(5, 4)),
        CatalogEntry(12, 7, "zero", Fraction(0)),
        CatalogEntry(11, 1, "boundary", Fraction(2, 3)),
    ):
        report = compare_entry(entry, primes=PRIMES_DEFAULT[:5])
        assert report.all_equal(), report.to_dict()


# Staircases on the smooth chart, where the stair (s, t) is x^t y^s.
SMOOTH = hj_resolve(1, 1)
X3, Y3, X3Y3, MAXIMAL = ((0, 3),), ((3, 0),), ((3, 3),), ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "j,tau,verdict",
    [
        (MAXIMAL, MAXIMAL, EQUAL),
        (MAXIMAL, X3Y3, MULTIPLIER_LARGER),
        (X3, X3Y3, MULTIPLIER_LARGER),
        (X3Y3, Y3, TEST_LARGER),
        (((1, 1),), MAXIMAL, TEST_LARGER),  # (x y) in (x, y)
        (X3, Y3, INCOMPARABLE),
        (((0, 4), (2, 1)), ((1, 2),), INCOMPARABLE),  # (x^4, x y^2) and (x^2 y)
    ],
)
def test_classify_every_verdict(j, tau, verdict):
    # no toric pair reaches the three strict verdicts (tau = J by theorem),
    # so they are tested on hand-built staircases
    assert _classify(MonomialIdeal(SMOOTH, j), MonomialIdeal(SMOOTH, tau)) == verdict


def test_ideals_that_contain_each_other_have_equal_staircases():
    # why _classify tests equality once: every staircase the code builds is
    # canonical (_minimal_stairs of itself), so two ideals that contain each
    # other have the same stairs
    rng = random.Random(41)
    mutual = 0
    for model in (hj_resolve(1, 1), hj_resolve(2, 1), hj_resolve(5, 2), hj_resolve(7, 3), hj_resolve(12, 5)):
        monoid = sorted(brute_ideal_points(model, [(0, 0)], box=6))
        for _ in range(30):
            g1 = rng.sample(monoid, rng.randint(1, 4))
            g2 = g1 + [(u[0] + w[0], u[1] + w[1]) for u in g1 for w in rng.sample(monoid, 2)]
            rng.shuffle(g2)
            g3 = rng.sample(monoid, rng.randint(1, 4))
            i1, i2, i3 = (MonomialIdeal.from_points(model, g) for g in (g1, g2, g3))
            for a, b in ((i1, i2), (i1, i3), (i2, i3)):
                if a.issubset(b) and b.issubset(a):
                    assert a.stairs == b.stairs, (model, a.gens, b.gens)
                    mutual += 1
                for stairs in (a.stairs, a.sum(b).stairs, a.intersect(b).stairs, corner_stairs(model, *rng.choice(a.stairs))):
                    assert _minimal_stairs(stairs) == stairs
        for _ in range(6):
            wl, wr = (Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(2))
            w = (wl.numerator, wl.denominator, wr.numerator, wr.denominator)
            for stairs, _ in frobenius._closure(model, (2, 3, 5), *w, frobenius._seed(model, *w)):
                assert _minimal_stairs(stairs) == stairs
    assert mutual >= 150


def test_strict_verdicts_are_reported(monkeypatch):
    # a test ideal that shrinks at p = 2 gives a strict verdict there, records
    # its generators, and moves stable_from_prime to the next prime
    pair = PairSpec(SMOOTH, SMOOTH.boundary_divisor(), Fraction(5, 4))
    monkeypatch.setattr(frobenius, "_closure", _shrunk_closure((2,)))
    report = compare_pair(pair, primes=(2, 3, 5))
    assert [v.verdict for v in report.verdicts] == [MULTIPLIER_LARGER, EQUAL, EQUAL]
    assert report.stable_from_prime == 3 and not report.all_equal()
    shrunk = multiplier_ideal(pair).intersect(MonomialIdeal(SMOOTH, X3Y3))
    assert report.to_dict()["primes"][0]["test_ideal"] == [list(g) for g in shrunk.gens]
    assert "test_ideal" not in report.to_dict()["primes"][1]


def _shrunk_closure(shrunk):
    """`frobenius._closure` with the staircase at each prime of `shrunk`
    cut down to its part inside (x^3 y^3)."""
    real = frobenius._closure

    def closure(model, primes, *w_and_seed):
        return [
            (MonomialIdeal(model, stairs).intersect(MonomialIdeal(model, X3Y3)).stairs if p in shrunk else stairs, depth)
            for p, (stairs, depth) in zip(primes, real(model, primes, *w_and_seed))
        ]

    return closure


def _old_stable_from_prime(verdicts):
    """The earlier quadratic scan, kept as the oracle: the first prime from
    which every tested prime agrees."""
    for v in verdicts:
        if all(w.verdict == EQUAL for w in verdicts if w.p >= v.p):
            return v.p
    return None


@pytest.mark.parametrize(
    "shrunk,stable",
    [((), 2), ((2,), 3), ((5,), 7), ((2, 5), 7), ((3, 7), 11), ((11,), None), ((5, 11), None), ((2, 3, 5, 7, 11), None)],
)
def test_stable_from_prime_is_the_first_prime_of_the_equal_tail(monkeypatch, shrunk, stable):
    # a middle prime that disagrees moves stable_from_prime past it, and a
    # last prime that disagrees leaves no prime from which all agree
    pair = PairSpec(SMOOTH, SMOOTH.boundary_divisor(), Fraction(5, 4))
    monkeypatch.setattr(frobenius, "_closure", _shrunk_closure(shrunk))
    report = compare_pair(pair, primes=(11, 2, 7, 3, 5))
    assert [v.verdict != EQUAL for v in report.verdicts] == [p in shrunk for p in (2, 3, 5, 7, 11)]
    assert report.stable_from_prime == stable == _old_stable_from_prime(report.verdicts)
