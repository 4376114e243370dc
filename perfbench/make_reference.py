"""Record the reference data the oracle compares against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout at the commit whose results are
the reference.  Writes perfbench/reference/{catalog,scaleout,
queries}.json.  Every recorded output must itself pass the
oracle's generic checks (tau = J, adjunction, test ideal = multiplier
ideal), so a wrong program cannot be recorded as the reference.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import REFERENCE, SRC, cli_op

sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import workloads  # noqa: E402
from surfideals import cli  # noqa: E402,F401  (forked children inherit the import)

def run_cli(argv, untimed_argv=None) -> tuple:
    """(exit code, stdout, untimed stdout) of one command in a fresh process."""
    res = cli_op([argv], lambda codes, outs, untimed: {"code": codes[0], "out": outs[0], "untimed": untimed},
                 untimed_argv=untimed_argv)
    if "error" in res:
        sys.exit(f"{' '.join(argv)}: {res['error']}")
    return res["code"], res["out"], res["untimed"]


def _write(name: str, doc: dict) -> None:
    REFERENCE.mkdir(exist_ok=True)
    with open(REFERENCE / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE / name}")


def record_catalog() -> list[int]:
    code, out, _ = run_cli(workloads.CATALOG_ARGV)
    if code != 0:
        sys.exit(f"compare catalog failed: {code}")
    doc = json.loads(out)
    listing = json.loads(run_cli(("catalog",))[1])
    pairs = []
    for entry, rep in zip(listing["pairs"], doc["reports"]):
        pairs.append({"r": entry["r"], "a": entry["a"], "z": entry["z"], "lambda": entry["lambda"],
                      "multiplier_ideal": oracle.gens(rep["multiplier_ideal"])})
    reference = {"primes": doc["primes"], "pairs": pairs,
                 "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
    per_pair, _ = oracle.check_catalog(doc, reference)
    bad = [p for p in per_pair if p]
    if bad or len(pairs) != doc["catalog_size"]:
        sys.exit(f"catalog does not pass the oracle: {bad[:3]}")
    _write("catalog.json", reference)
    return listing["primes"]


def record_scaleout(primes: list[int]) -> None:
    ideals = {}
    for r, a in workloads.SCALEOUT_MODELS:
        for lam in workloads.SCALEOUT_LAMBDAS:
            out = run_cli(("mult-ideal", f"cyclic:{r}/{a}", "--z", "boundary", "--lambda", lam))[1]
            ideals[f"{r}/{a}|{lam}"] = oracle.gens(json.loads(out)["ideal"]["generators"])
    _write("scaleout.json", {"primes": primes, "multiplier_ideal": ideals})


def record_queries() -> None:
    digests = []
    for i, q in enumerate(workloads.query_pool()):
        untimed = workloads.mult_ideal_argv(q) if q["kind"] == "test-ideal" else None
        problems, content = oracle.check_query(q, *run_cli(workloads.query_argv(q), untimed), None)
        if problems:
            sys.exit(f"pool query {i} {workloads.query_argv(q)} fails the oracle: {problems}")
        digests.append(oracle.content_digest(content))
    _write("queries.json", {"digests": digests})


if __name__ == "__main__":
    record_scaleout(record_catalog())
    record_queries()
