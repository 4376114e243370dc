"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite is exact (no tolerances anywhere: every assertion
is equality or containment of exact rational/lattice data).
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import surfideals
from surfideals.compare import catalog_entries, compare_entry
from surfideals.divisors import DivisorLabel, DivisorVector, floor_inequality_check
from surfideals.frobenius import CharPContext, boundary_containment_check
from surfideals.frobenius import test_ideal as tau
from surfideals.linalg import solve
from surfideals.multiplier import (
    PairSpec,
    multiplier_ideal,
    multiplier_m_limiting,
    multiplier_with_boundary,
)
from surfideals.resolution import (
    ExceptionalCurve,
    Extra,
    ResolutionModel,
    discrepancies,
    negativity_check,
    pair_inequality_check,
    relative_canonical,
)
from surfideals.toric import LEFT, RIGHT, cartier_index, hj_resolve, pushforward_sections, to_resolution

SMOOTH = hj_resolve(1, 1)
CATALOG_SHA256 = "79214402320a4d00dc55d778ebacef90a43441090643dd432dd8700b9875595b"


def _report(num: int, desc: str, ok: bool, extra: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def _models():
    return [hj_resolve(r, a) for r in range(2, 13) for a in range(1, r) if math.gcd(r, a) == 1]


def _pick_prime(r: int) -> int:
    for p in (3, 5, 7, 11):
        if r % p:
            return p
    raise AssertionError("unreachable for r <= 12")


def test_criterion_1_main_theorem_catalog():
    t0 = time.time()
    failures = []
    checked = 0
    for entry in catalog_entries():
        report = compare_entry(entry)
        model = entry.model()
        pair, gamma = entry.pair(), model.boundary_divisor().scale(Fraction(1, 2))
        for v in report.verdicts:
            checked += 1
            boundary = boundary_containment_check(pair, CharPContext(v.p), gamma)
            if v.verdict != "equal" or not boundary:
                failures.append((entry.entry_id, v.p, v.verdict, boundary))
    elapsed = time.time() - t0
    _report(
        1,
        "multiplier ideal == test ideal on the full catalog, every prime <= 31",
        not failures and elapsed < 300 and checked >= 4000,
        f"{checked} comparisons, {elapsed:.1f}s, failures={failures[:5]}",
    )


def test_criterion_2_smooth_chart_calibration():
    lams = sorted(
        {Fraction(n, d) for d in range(1, 7) for n in range(1, 2 * d + 1)} | {Fraction(7, 2)}
    )
    bad = []
    total = 0
    for b in range(5):
        for c in range(5):
            z = SMOOTH.divisor({RIGHT: b, LEFT: c})
            for lam in lams:
                expected = ((math.floor(lam * b), math.floor(lam * c)),)
                if multiplier_ideal(PairSpec(SMOOTH, z, lam)).gens != expected:
                    bad.append(("J", b, c, lam))
                for p in (2, 3, 5, 7):
                    total += 1
                    if tau(PairSpec(SMOOTH, z, lam), CharPContext(p)).gens != expected:
                        bad.append(("tau", b, c, lam, p))
    _report(
        2,
        "smooth-chart multiplier and test ideals match the monomial closed form exactly",
        not bad,
        f"{total} test-ideal evaluations, failures={bad[:5]}",
    )


def test_criterion_3_discrepancy_oracles():
    ok = True
    notes = []
    for r in range(2, 13):
        model = hj_resolve(r, r - 1)
        if relative_canonical(to_resolution(model)) != DivisorVector.zero():
            ok, _ = False, notes.append(f"A_{r-1}")
    third = hj_resolve(3, 1)
    if discrepancies(to_resolution(third)) != {"E1": Fraction(-1, 3)}:
        ok = False
        notes.append("1/3(1,1)")
    for d in range(1, 6):
        cone = ResolutionModel((ExceptionalCurve(DivisorLabel("E"), -d, genus=1),), ())
        if discrepancies(cone) != {"E": Fraction(-1)}:
            ok = False
            notes.append(f"elliptic cone d={d}")
    a1 = hj_resolve(2, 1)
    sections = pushforward_sections(a1, a1.divisor({"E1": -1}).ceil())
    if sections.gens != ((1, 0), (1, 1), (1, 2)):
        ok = False
        notes.append("A_1 maximal-ideal sections")
    _report(3, "discrepancy oracles (du Val chains, 1/3(1,1), elliptic cones) exact", ok, ",".join(notes))


def test_criterion_4_m_limiting_stabilization():
    bad = []
    lams = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(5, 4))
    for model in _models():
        index = cartier_index(model)
        ws = [(DivisorVector.zero(), Fraction(0))] + [(model.boundary_divisor(), lam) for lam in lams if lam > 0]
        for z, lam in ws:
            pair = PairSpec(model, z, lam)
            full = multiplier_ideal(pair)
            for k in (1, 2, 3):
                if multiplier_m_limiting(pair, k * index) != full:
                    bad.append((str(model), lam, "equality", k * index))
            for m in range(1, 13):
                if not multiplier_m_limiting(pair, m).issubset(full):
                    bad.append((str(model), lam, "containment", m))
    _report(
        4,
        "m-limiting ideals stabilize at the Cartier index and never exceed the numerical ideal",
        not bad,
        f"failures={bad[:5]}",
    )


def _random_negative_definite(rng: random.Random) -> ResolutionModel:
    n = rng.randint(1, 8)
    off = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            off[i][j] = off[j][i] = rng.choice((0, 0, 0, 1, 1, 2))
    for i in range(1, n):  # the dual graph over one point is connected: link a curve with no earlier neighbour
        if not any(off[i][:i]):
            off[i][i - 1] = off[i - 1][i] = 1
    curves = []
    for i in range(n):
        diag = -(sum(off[i]) + rng.randint(1, 4))
        curves.append(ExceptionalCurve(DivisorLabel(f"E{i+1}"), diag, rng.choice((0, 0, 1))))
    edges = tuple((i, j, off[i][j]) for i in range(n) for j in range(i + 1, n) if off[i][j])
    return ResolutionModel(tuple(curves), edges)


def test_criterion_5_negativity_lemma_fuzz():
    rng = random.Random(20240517)
    trials = 500
    good = 0
    for _ in range(trials):
        model = _random_negative_definite(rng)
        goal = [Fraction(rng.randint(0, 15), rng.randint(1, 8)) for _ in model.curves]
        coeffs = solve(model.diagonal, model.edges, goal)
        d = DivisorVector(zip(model.labels, coeffs))
        if negativity_check(model, d) and all(c <= 0 for c in coeffs):
            good += 1
    _report(5, "surface negativity lemma on randomized models", good == trials, f"{good}/{trials}")


def test_criterion_6_floor_lemma_fuzz():
    rng = random.Random(987654321)
    trials = 1000
    good = 0
    for _ in range(trials):
        labels = [DivisorLabel(f"E{i}") for i in range(rng.randint(1, 4))]
        coeffs = [Fraction(rng.randint(-200, 200), rng.randint(1, 64)) for _ in labels]
        q = rng.choice((2, 3, 4, 5, 8, 9))
        if floor_inequality_check(DivisorVector(zip(labels, coeffs)), q):
            good += 1
    _report(6, "floor/ceiling inequality fuzz", good == trials, f"{good}/{trials}")


def test_criterion_7_containment_suites():
    rng = random.Random(424242)
    tau_sum_fail = bdry_fail = ineq_fail = 0
    tau_sum_total = bdry_total = ineq_total = 0
    bdry_equal_hits = 0

    gamma_pool: dict[tuple[int, int], list[DivisorVector]] = {}
    for model in _models():
        gamma_pool[(model.r, model.a)] = [
            model.divisor(
                {
                    LEFT: Fraction(rng.randint(0, 8), rng.randint(1, 4)),
                    RIGHT: Fraction(rng.randint(0, 8), rng.randint(1, 4)),
                }
            )
            for _ in range(20)
        ]

    for entry in catalog_entries():
        pair = entry.pair()
        model = pair.model
        p = _pick_prime(model.r)
        ctx = CharPContext(p)
        w = pair.scaled_z()
        tau_plain = tau(PairSpec(model, w), ctx)
        full = multiplier_ideal(pair)
        res = to_resolution(model)
        for gamma in gamma_pool[(model.r, model.a)]:
            tau_sum_total += 1
            if not tau(PairSpec(model, w + gamma), ctx).issubset(tau_plain):
                tau_sum_fail += 1
            bdry_total += 1
            decorated = multiplier_with_boundary(pair, gamma)
            if not decorated.issubset(full):
                bdry_fail += 1
            elif decorated == full:
                bdry_equal_hits += 1
            ineq_total += 1
            bl, br = model.boundary_labels
            if not pair_inequality_check(res, {LEFT: gamma.coeff(bl), RIGHT: gamma.coeff(br)}):
                ineq_fail += 1
    _report(
        7,
        "containment suites (test-ideal sum direction, boundary multiplier ideals, discrepancy inequality)",
        tau_sum_fail == bdry_fail == ineq_fail == 0,
        f"tau-sum {tau_sum_total - tau_sum_fail}/{tau_sum_total}, boundary {bdry_total - bdry_fail}/{bdry_total} "
        f"(equality attained {bdry_equal_hits}x), ineq {ineq_total - ineq_fail}/{ineq_total}",
    )


def test_criterion_8_determinism_across_jobs():
    cmd = [sys.executable, "-m", "surfideals.cli", "compare", "catalog", "--primes", "2,3,5,7,11,13,17,19,23,29,31"]
    src = str(Path(surfideals.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = []
    for jobs in ("1", "8"):
        proc = subprocess.run(cmd + ["--jobs", jobs], env=env, capture_output=True, timeout=900)
        assert proc.returncode == 0, proc.stderr.decode()[:500]
        runs.append(proc.stdout)
    identical = runs[0] == runs[1]
    all_equal = json.loads(runs[0].decode())["all_equal"]
    # the catalog output is pinned: a change that alters it on purpose
    # updates this digest and says so in CHANGES.md
    digest = hashlib.sha256(runs[0]).hexdigest()
    _report(
        8,
        "byte-identical full-catalog reports with --jobs 1 and --jobs 8, of the pinned digest",
        identical and all_equal and digest == CATALOG_SHA256,
        f"{len(runs[0])} bytes each, all_equal={all_equal}, sha256={digest[:12]}",
    )
