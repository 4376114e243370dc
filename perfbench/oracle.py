"""Correctness checks on the program's JSON output.

The checks read mathematical content only (generator sets, exact
rationals, verdicts), never the bytes of the JSON, so a change that
drops a diagnostic field or reorders keys is not a failure.  The checks
return lists of problems; an empty list means the unit passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

EQUAL = "equal"
SKIPPED = "skipped(p|r)"
UNSTABLE = "unstabilized"


def gens(doc_gens) -> list[list[int]]:
    """A generator list as a sorted list of integer pairs."""
    return sorted([int(g[0]), int(g[1])] for g in doc_gens)


def divisor(doc: dict) -> dict[str, str]:
    """A label -> rational map, normalized, with zero coefficients dropped."""
    out = {}
    for label, c in doc.items():
        value = Fraction(c)
        if value:
            out[str(label)] = str(value)
    return dict(sorted(out.items()))


# -- compare reports (catalog and scaleout) -------------------------------


def report_content(rep: dict) -> list:
    """The mathematical content of one pair's report: the multiplier
    ideal and, per prime, the verdict, the boundary containment and the
    test ideal when it is printed."""
    primes = [[int(v["p"]), v["verdict"], v.get("boundary_containment"),
               gens(v["test_ideal"]) if "test_ideal" in v else None] for v in rep["primes"]]
    return [gens(rep["multiplier_ideal"]), sorted(primes)]


def compare_content(doc: dict) -> list:
    """report_content of every report of a `compare` document."""
    reports = doc["reports"] if "reports" in doc else [doc["report"]]
    return [report_content(rep) for rep in reports]


def check_compare_report(rep: dict, r: int, primes, multiplier_ref) -> tuple[list[str], int]:
    """Check one pair's report; returns (problems, computed verdicts:
    neither skipped nor unstabilized).

    Every tame prime must be `equal` (tau = J for toric pairs, Blickle
    2004) with its boundary containment true, a prime may be skipped only
    when it divides r, every requested prime must be reported, and the
    multiplier ideal (characteristic-free) must match the reference.
    """
    problems = []
    computed = 0
    if gens(rep["multiplier_ideal"]) != multiplier_ref:
        problems.append("multiplier ideal differs from the reference")
    seen = set()
    for v in rep["primes"]:
        p = int(v["p"])
        seen.add(p)
        verdict = v["verdict"]
        if verdict == SKIPPED:
            if r % p:
                problems.append(f"p={p}: skipped although p does not divide r={r}")
            continue
        computed += verdict != UNSTABLE
        if verdict != EQUAL:
            problems.append(f"p={p}: verdict {verdict}")
        if v.get("boundary_containment") is False:
            problems.append(f"p={p}: boundary containment fails")
    if seen != set(primes):
        problems.append(f"reported primes {sorted(seen)} != requested {sorted(primes)}")
    return problems, computed


def check_catalog(doc: dict, reference: dict) -> tuple[list[list[str]], int]:
    """Per-pair problems of a `compare catalog` document, and the number
    of computed verdicts.  Pairs are matched to the reference by position
    (the catalog order is part of the catalog's definition)."""
    pairs = reference["pairs"]
    reports = doc.get("reports", [])
    per_pair: list[list[str]] = []
    computed = 0
    for i, ref in enumerate(pairs):
        if i >= len(reports):
            per_pair.append(["pair missing from the report"])
            continue
        try:
            problems, n = check_compare_report(reports[i], ref["r"], reference["primes"], ref["multiplier_ideal"])
        except (KeyError, TypeError, ValueError) as exc:
            problems, n = [f"malformed report: {exc!r}"], 0
        per_pair.append(problems)
        computed += n
    if len(reports) > len(pairs):
        per_pair[-1] = per_pair[-1] + [f"{len(reports) - len(pairs)} extra reports"]
    return per_pair, computed


# -- one-shot queries ------------------------------------------------------


def hj_chain(r: int, a: int) -> list[int]:
    """The b_i of r/a = b_1 - 1/(b_2 - ...), computed independently of
    the program: the self-intersections -b_i of the resolution chain."""
    bs = []
    num, den = r, a
    while den:
        b = -(-num // den)
        bs.append(b)
        num, den = den, b * den - num
    return bs


def check_adjunction(r: int, a: int, rel_canonical: dict) -> list[str]:
    """K_Y - sum a_i E_i is numerically trivial on the chain:
    sum_i a_i (E_i . E_j) = K_Y . E_j = b_j - 2 for every curve E_j."""
    bs = hj_chain(r, a)
    labels = [f"E{i + 1}" for i in range(len(bs))]
    extra = set(rel_canonical) - set(labels)
    if extra:
        return [f"relative canonical has unknown labels {sorted(extra)}"]
    coeff = [Fraction(rel_canonical.get(l, 0)) for l in labels]
    problems = []
    for j, b in enumerate(bs):
        lhs = -b * coeff[j]
        if j > 0:
            lhs += coeff[j - 1]
        if j + 1 < len(bs):
            lhs += coeff[j + 1]
        if lhs != b - 2:
            problems.append(f"adjunction fails on E{j + 1}: {lhs} != {b - 2}")
    return problems


def query_content(kind: str, doc: dict):
    """The mathematical fields of a query's output, normalized."""
    if kind == "discrepancy":
        return {"relative_canonical": divisor(doc["relative_canonical"])}
    if kind in ("mult-ideal", "test-ideal"):
        return {"ideal": gens(doc["ideal"]["generators"])}
    if kind == "m-limiting":
        return {"ideal": gens(doc["ideal"]["generators"]), "relative_canonical_m": divisor(doc["relative_canonical_m"])}
    if kind == "jumps":
        return {"jumps": [[str(Fraction(j["lambda"])), gens(j["generators"])] for j in doc["jumps"]]}
    raise ValueError(f"unknown query kind {kind!r}")


def content_digest(content) -> str:
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()[:16]


def check_query(q: dict, rc, out: str, mult_out, ref_digest) -> tuple[list[str], object]:
    """Check one query; returns (problems, normalized content).

    `mult_out` is the `mult-ideal` output of the same pair for a
    test-ideal query; `ref_digest` is the recorded digest of the query's
    content, when the reference covers it.
    """
    if rc != 0:
        return [f"exit code {rc}"], None
    try:
        doc = json.loads(out)
        if "error" in doc:
            return [f"error {doc['error']}"], None
        content = query_content(q["kind"], doc)
        problems = []
        if q["kind"] == "discrepancy":
            if divisor(doc["discrepancies"]) != content["relative_canonical"]:
                problems.append("discrepancies disagree with the relative canonical divisor")
            problems += check_adjunction(q["r"], q["a"], content["relative_canonical"])
        if q["kind"] == "test-ideal":
            j = gens(json.loads(mult_out)["ideal"]["generators"])
            if content["ideal"] != j:
                problems.append("test ideal differs from the multiplier ideal of the same pair")
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"], None
    if ref_digest is not None and content_digest(content) != ref_digest:
        problems.append("content differs from the recorded reference")
    return problems, content


# -- per-operation results -------------------------------------------------
#
# Each returns {"attempted", "failures", "units", "content"}: the checked
# units (catalog pairs, scale-out pairs, queries), the failing ones as
# [label, problems], the computed verdicts or answered queries, and a
# digest of the mathematical content for comparing two runs.


def _result(attempted: int, failures: list, units: int = 0, content=None) -> dict:
    return {"attempted": attempted, "failures": failures, "units": units,
            "content": None if content is None else content_digest(content)}


def catalog_result(rc, out: str, reference: dict) -> dict:
    n_pairs = len(reference["pairs"])
    if rc != 0:
        return _result(n_pairs, [[f"catalog pair {i}", [f"exit code {rc}"]] for i in range(n_pairs)])
    try:
        doc = json.loads(out)
        per_pair, computed = check_catalog(doc, reference)
        content = compare_content(doc)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        return _result(n_pairs, [[f"catalog pair {i}", [f"malformed output: {exc!r}"]] for i in range(n_pairs)])
    failures = [[f"catalog pair {i}", problems] for i, problems in enumerate(per_pair) if problems]
    return _result(n_pairs, failures, computed, content)


def compare_result(rc, out: str, r: int, primes, multiplier_ref, label: str) -> dict:
    if rc != 0:
        return _result(1, [[label, [f"exit code {rc}"]]])
    try:
        doc = json.loads(out)
        problems, computed = check_compare_report(doc["report"], r, primes, multiplier_ref)
        content = compare_content(doc)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        return _result(1, [[label, [f"malformed output: {exc!r}"]]])
    return _result(1, [[label, problems]] if problems else [], computed, content)


def merge_results(results: list[dict]) -> dict:
    """One result for several checked commands run in one process."""
    contents = [r["content"] for r in results]
    return {"attempted": sum(r["attempted"] for r in results),
            "failures": [f for r in results for f in r["failures"]],
            "units": sum(r["units"] for r in results),
            "content": None if None in contents else content_digest(contents)}


def query_result(q: dict, rc, out: str, mult_out, ref_digest, label: str) -> dict:
    problems, content = check_query(q, rc, out, mult_out, ref_digest)
    return _result(1, [[label, problems]] if problems else [], int(rc == 0), content)
