"""Side-by-side comparison of multiplier and test ideals over prime sweeps.

For each pair the characteristic-zero multiplier ideal is computed once
(its combinatorics are characteristic-free) and the test ideal at each
prime by one sweep (`frobenius.test_ideal_sweep`), whose closure runs
all primes in lockstep and shares the work that does not depend on p,
exactly (by the stable-depth lemma); a sweep's primes are checked once
(`PrimeSweep`), and verdicts are exact staircase comparisons.  The built-in
catalog is the desk-scale grid that the acceptance suite and the CLI
share: every cyclic quotient 1/r(1,a) with 2 <= r <= 12, Z in
{0, toric boundary}, lambda in {0, 1/2, 2/3, 1, 5/4}.

Both ideals depend on a pair only through its model and W = lambda Z,
which `PairSpec` reduces to the two boundary coefficients w_left and
w_right.  In each of the 45 models six of the ten entries are the pair
(X, 0): Z = 0 at every lambda, and the boundary Z at lambda = 0.  So
the 450 entries are 225 distinct pairs, and `compare_catalog` builds one
`PairSpec` per distinct pair, compares it once and reports it under the
id of every entry that names it.

A report never claims anything about untested primes: it records the
smallest tested prime from which agreement is unbroken, and the verdict
for each tested prime.  Every prime is tested, p | r included.  On toric
pairs tau = J = O_X(-floor(W)) in every characteristic by theorem (the
`multiplier` and `frobenius` module docstrings; Blickle 2004), so every
verdict is `equal`.  The harness still computes tau from its definition,
the trace-map closure, at every prime of every distinct pair (each prime
runs its own rounds to its own fixed point), so each verdict checks that
closure against the multiplier ideal rather than a formula against itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .divisors import DivisorVector, _make_checked
from .frobenius import CharPContext, _sweep, test_ideal_detailed  # noqa: F401  (an alias perfbench's tracer test reads)
from .multiplier import PairSpec, multiplier_ideal
from .toric import MonomialIdeal, ToricSurfaceModel, hj_resolve

PRIMES_DEFAULT = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

CATALOG_LAMBDAS = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(5, 4))
CATALOG_Z_KINDS = ("zero", "boundary")
CATALOG_R_MAX = 12

EQUAL = "equal"
MULTIPLIER_LARGER = "multiplier-strictly-larger"
TEST_LARGER = "test-strictly-larger"
INCOMPARABLE = "incomparable"


class PrimeVerdict(NamedTuple):
    p: int
    verdict: str
    test_gens: Optional[tuple[tuple[int, int], ...]] = None

    def to_dict(self) -> dict:
        doc: dict = {"p": self.p, "verdict": self.verdict}
        if self.test_gens is not None:
            doc["test_ideal"] = [list(g) for g in self.test_gens]
        return doc


class PrimeSweep(NamedTuple("PrimeSweep", [("primes", tuple), ("equal", tuple)])):
    """A sweep's primes, sorted and each checked once by `CharPContext`, and the derived
    `PrimeVerdict(p, EQUAL)` of each, which every report equal at p holds; PrimeSweep(sweep) is sweep."""

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, primes, _equal=None):  # `_make`, `_replace` and pickle pass `equal` back
        if isinstance(primes, PrimeSweep):
            return primes
        primes = tuple(sorted(primes))
        for p in primes:
            CharPContext(p)
        return tuple.__new__(cls, (primes, tuple(PrimeVerdict(p, EQUAL) for p in primes)))


class ComparisonReport(NamedTuple):
    pair_id: str
    multiplier_gens: tuple[tuple[int, int], ...]
    verdicts: tuple[PrimeVerdict, ...]
    stable_from_prime: Optional[int]

    def all_equal(self) -> bool:
        return all(v.verdict == EQUAL for v in self.verdicts)

    def to_dict(self, primes=None, multiplier=None) -> dict:
        """The report's JSON document; `primes` and `multiplier`, when given,
        stand in for the lists of its verdicts and of J's generators
        (`compare catalog` passes one list to every report that has it)."""
        return {
            "pair": self.pair_id,
            "multiplier_ideal": [list(g) for g in self.multiplier_gens] if multiplier is None else multiplier,
            "primes": [v.to_dict() for v in self.verdicts] if primes is None else primes,
            "stable_from_prime": self.stable_from_prime,
        }


def pair_id(r: int, a: int, z_kind: str, lam: Fraction) -> str:
    return f"cyclic:{r}/{a}|z={z_kind}|lam={lam}"


class CatalogEntry(NamedTuple):
    r: int
    a: int
    z_kind: str
    lam: Fraction

    @property
    def entry_id(self) -> str:
        return pair_id(self.r, self.a, self.z_kind, self.lam)

    def model(self) -> ToricSurfaceModel:
        return hj_resolve(self.r, self.a)

    def pair(self, model: Optional[ToricSurfaceModel] = None) -> PairSpec:
        """The entry's pair, on `model` when the caller has resolved (r, a) already."""
        model = self.model() if model is None else model
        z = {"zero": DivisorVector.zero(), "boundary": model.boundary_divisor()}[self.z_kind]
        return PairSpec(model, z, self.lam)


def catalog_entries() -> tuple[CatalogEntry, ...]:
    entries = []
    for r in range(2, CATALOG_R_MAX + 1):
        for a in range(1, r):
            if math.gcd(r, a) != 1:
                continue
            for z_kind in CATALOG_Z_KINDS:
                for lam in CATALOG_LAMBDAS:
                    entries.append(CatalogEntry(r, a, z_kind, lam))
    return tuple(entries)


def _classify(j: MonomialIdeal, tau: MonomialIdeal) -> str:
    """The verdict on J and tau, two ideals on one model.  A staircase is
    canonical (the minimal pairs, sorted), so equal staircases are equal
    ideals, and two ideals that contain each other have equal staircases:
    past the first test, at most one containment holds."""
    if j.stairs == tau.stairs:
        return EQUAL
    if tau.issubset(j):
        return MULTIPLIER_LARGER
    if j.issubset(tau):
        return TEST_LARGER
    return INCOMPARABLE


def compare_pair(pair: PairSpec, primes: Sequence[int] = PRIMES_DEFAULT) -> ComparisonReport:
    """Run the multiplier/test comparison for one pair over a prime sweep,
    a `PrimeSweep` taken as checked or primes built into one, by one
    unchecked `test_ideal_sweep`.  An equal prime gets the sweep's own verdict;
    only a test staircase unequal to J's is built and classified.

    tau included in J needs no separate check: the verdict already decides
    it.  Nor does tau(W + Gamma) included in tau(W) for effective Gamma:
    b_v(e) = (1 - q) + ceil((q - 1) w_v) does not decrease as w_v grows, so
    every map admissible for W + Gamma is admissible for W, tau(W) is a
    nonzero ideal closed under the W + Gamma maps, and tau(W + Gamma), the
    least such ideal, lies inside it (`boundary_containment_check` computes
    both sides).
    """
    sweep = PrimeSweep(primes)
    model = pair.model
    j = multiplier_ideal(pair)
    verdicts = []
    for equal, (stairs, _) in zip(sweep.equal, _sweep(pair, sweep.primes)):
        if stairs == j.stairs:
            verdicts.append(equal)
        else:
            tau = MonomialIdeal(model, stairs)
            verdicts.append(PrimeVerdict(equal.p, _classify(j, tau), tau.gens))
    stable_from = None  # the first prime of the longest all-equal tail
    for v in reversed(verdicts):
        if v.verdict != EQUAL:
            break
        stable_from = v.p
    if pair.z.is_zero():
        z_kind = "zero"
    elif pair.z == model.boundary_divisor():
        z_kind = "boundary"
    else:
        z_kind = "custom"
    name = pair_id(model.r, model.a, z_kind, pair.lam)
    return ComparisonReport(name, j.gens, tuple(verdicts), stable_from)


def compare_entry(entry: CatalogEntry, primes: Sequence[int] = PRIMES_DEFAULT) -> ComparisonReport:
    return compare_pair(entry.pair(), primes=primes)


def compare_catalog(primes: Sequence[int] = PRIMES_DEFAULT) -> list[ComparisonReport]:
    """The report of every catalog entry, in catalog order.

    Each model is resolved once.  An entry's W = lambda Z is 0 when
    lambda = 0 or Z = 0, and those entries of one model are one pair;
    any other entry is keyed by its Z and the numerator and denominator
    of lambda (a Fraction hashes slowly).  Each distinct key gets one
    `PairSpec`, which validates it; then each distinct pair gets one
    `compare_pair` call, in order, with one `PrimeSweep`.  Each entry gets
    that report under its own id.
    """
    sweep = PrimeSweep(primes)
    entries = catalog_entries()
    models = {key: hj_resolve(*key) for key in dict.fromkeys((e.r, e.a) for e in entries)}
    keys, distinct = [], {}
    for e in entries:
        key = (e.r, e.a) if e.z_kind == "zero" or not e.lam else (e.r, e.a, e.z_kind, e.lam.numerator, e.lam.denominator)
        keys.append(key)
        if key not in distinct:
            distinct[key] = e.pair(models[e.r, e.a])
    reports = [compare_pair(pair, sweep) for pair in distinct.values()]
    shared = {key: (rep.multiplier_gens, rep.verdicts, rep.stable_from_prime) for key, rep in zip(distinct, reports)}
    return [ComparisonReport(e.entry_id, *shared[key]) for e, key in zip(entries, keys)]
