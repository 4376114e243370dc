"""Inputs of the three workloads.

The seed orders the fixed scale-out commands and the fixed query pool;
the catalog takes no seed.  The program only ever sees the generated
command lines.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator

CATALOG_ARGV = ("compare", "catalog")

# Scale-out: single large quotients, boundary Z, the default prime sweep.
# The models (r, a) are those of the ROADMAP baseline table; their chains
# have every b_i <= 5 (curve E_i^2 = -b_i).  The cost of `compare` at
# lambda = 5/4 grows steeply with b: at r = 101, 8-10 s for b <= 6, 15 s
# for b = 13, 22 s for b = 21, 57 s for b = 34, and minutes for a = 1.
# So models drawn per seed would put a different median on every run.
# queries covers every a for r <= 64.
SCALEOUT_MODELS = ((31, 7), (61, 25), (101, 37))
SCALEOUT_LAMBDAS = ("1/2", "5/4")

QUERY_KINDS = ("discrepancy", "mult-ideal", "m-limiting", "jumps", "test-ideal")
QUERY_R_RANGE = (2, 64)
QUERY_MAX_P = 47
QUERY_MAX_DEN = 4
QUERY_M_RANGE = (1, 6)
QUERY_LAMBDA_MAX = ("1", "3/2", "2")
QUERY_POOL_BLOCKS = 4


def units(r: int) -> list[int]:
    """The a in [1, r) with gcd(r, a) = 1, i.e. the valid models 1/r(1,a)."""
    return [a for a in range(1, r) if math.gcd(r, a) == 1]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def scaleout_sweep(seed: int, sweep: int, rs=None) -> list[tuple[str, ...]]:
    """The `compare` command lines of one scale-out sweep: every model
    (with r in `rs`, default all) at every lambda, in an order set by the
    seed and the sweep's number.

    Every sweep does the same work, so every run measures the same
    models.  The order decides which command of the sweep's process fills
    the caches that the two lambdas of a model share.
    """
    argvs = [("compare", f"cyclic:{r}/{a}", "--z", "boundary", "--lambda", lam)
             for r, a in SCALEOUT_MODELS if rs is None or r in rs for lam in SCALEOUT_LAMBDAS]
    random.Random(f"scaleout:{seed}:{sweep}").shuffle(argvs)
    return argvs


def _small_rational(rng: random.Random, lo_num: int, hi_over_den: int) -> Fraction:
    den = rng.randint(1, QUERY_MAX_DEN)
    return Fraction(rng.randint(lo_num, hi_over_den * den), den)


def make_query(rng: random.Random, kind: str, r: int) -> dict:
    """One random one-shot query of the given kind on a model 1/r(1,a);
    all of its fields are JSON values."""
    q: dict = {"kind": kind, "r": r, "a": rng.choice(units(r))}
    if kind == "discrepancy":
        return q
    q["z"] = {"BL": str(_small_rational(rng, 0, 2)), "BR": str(_small_rational(rng, 0, 2))}
    if kind == "jumps":
        q["lambda_max"] = rng.choice(QUERY_LAMBDA_MAX)
        return q
    q["lambda"] = str(_small_rational(rng, 1, 2))
    if kind == "m-limiting":
        q["m"] = rng.randint(*QUERY_M_RANGE)
    elif kind == "test-ideal":
        q["p"] = rng.choice([p for p in range(2, QUERY_MAX_P + 1) if _is_prime(p) and r % p])
    return q


def query_pool() -> list[dict]:
    """The fixed pool of QUERY_POOL_BLOCKS stratified blocks: each block
    holds every (kind, r) once, with its own random a, Z, lambda, m, p."""
    rng = random.Random("queries:pool")
    strata = [(kind, r) for kind in QUERY_KINDS for r in range(QUERY_R_RANGE[0], QUERY_R_RANGE[1] + 1)]
    return [make_query(rng, kind, r) for _ in range(QUERY_POOL_BLOCKS) for kind, r in strata]


def query_stream(seed: int) -> Iterator[tuple[int, dict]]:
    """The endless stream of (pool index, query): passes over the pool,
    each in a new seed-determined order.

    The latency tail (large r, test ideals and jumps on some a) is steep,
    so a run of about a thousand queries drawn afresh would put a
    different p95 on every seed.  Drawing them from one pool makes every
    run sample the same distribution; the seed sets which queries a run
    that ends partway through a pass has measured.
    """
    pool = query_pool()
    rng = random.Random(f"queries:{seed}")
    order = list(range(len(pool)))
    while True:
        rng.shuffle(order)
        for i in order:
            yield i, pool[i]


def query_argv(q: dict) -> tuple[str, ...]:
    model = f"cyclic:{q['r']}/{q['a']}"
    if q["kind"] == "discrepancy":
        return ("discrepancy", model)
    z = '{"BL": "%s", "BR": "%s"}' % (q["z"]["BL"], q["z"]["BR"])
    if q["kind"] == "jumps":
        return ("jumps", model, "--z", z, "--lambda-max", q["lambda_max"])
    argv = (q["kind"], model, "--z", z, "--lambda", q["lambda"])
    if q["kind"] == "m-limiting":
        argv += ("--m", str(q["m"]))
    elif q["kind"] == "test-ideal":
        argv += ("--p", str(q["p"]))
    return argv


def mult_ideal_argv(q: dict) -> tuple[str, ...]:
    """The `mult-ideal` command line of the pair of a test-ideal query."""
    return ("mult-ideal",) + query_argv(q)[1:6]
