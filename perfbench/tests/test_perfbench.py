"""Tests of the benchmark itself: tiny runs of each workload, the oracle
on corrupted outputs, the tracer's patching and the BENCHMARK.json
contract.  Run with `python3 -m pytest perfbench/tests`."""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads
from proc import run_forked
from tracer import TRACED, Tracer

TINY = {"primes": [5], "scaleout_rs": (31,), "queries": 12, "setup_repeats": 1}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_untraced_run(name):
    line = run.run_workload(name, 0, 0.1, False, TINY)["line"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_traced_run_checks_the_same_outputs(name):
    # `correct` includes the per-operation comparison of the traced
    # output's checked content with the untraced one.
    result = run.run_workload(name, 1, 0.1, True, TINY)
    line = result["line"]
    assert line["correct"], result["run"].problems
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == run.per_layer_spec()
    assert result["trace"]["missing"] == []
    assert line["metrics"]["cli.main.self_s"]["value"] > 0


def test_benchmark_json_matches_the_harness():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_spec()


def test_exits_nonzero_without_the_program():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""


# -- the oracle ------------------------------------------------------------


def _passing_catalog(reference):
    reports = []
    for pair in reference["pairs"]:
        primes = [{"p": p, "verdict": oracle.SKIPPED if pair["r"] % p == 0 else oracle.EQUAL,
                   "boundary_containment": True} for p in reference["primes"]]
        reports.append({"multiplier_ideal": pair["multiplier_ideal"], "primes": primes})
    return {"reports": reports}


def _fail_frac(doc, reference):
    res = oracle.catalog_result(0, json.dumps(doc), reference)
    tally = run.Run({})
    tally.record(res, len(reference["pairs"]), "catalog")
    return tally.failed / tally.attempted


@pytest.fixture(scope="module")
def catalog_reference():
    return run._load("catalog.json")


def test_oracle_passes_a_correct_catalog(catalog_reference):
    assert _fail_frac(_passing_catalog(catalog_reference), catalog_reference) == 0


def test_dropped_generator_raises_fail_frac(catalog_reference):
    doc = _passing_catalog(catalog_reference)
    i = next(i for i, rep in enumerate(doc["reports"]) if len(rep["multiplier_ideal"]) > 1)
    doc["reports"][i]["multiplier_ideal"] = doc["reports"][i]["multiplier_ideal"][1:]
    assert _fail_frac(doc, catalog_reference) == 1 / 450


@pytest.mark.parametrize("corrupt", [
    lambda prime: prime.update(verdict="test-strictly-larger"),
    lambda prime: prime.update(verdict="unstabilized"),
    lambda prime: prime.update(boundary_containment=False),
    lambda prime: prime.update(verdict=oracle.SKIPPED),  # a tame prime skipped
])
def test_wrong_verdicts_fail(catalog_reference, corrupt):
    doc = _passing_catalog(catalog_reference)
    corrupt(doc["reports"][7]["primes"][1])  # cyclic:2/1, p = 3
    assert _fail_frac(doc, catalog_reference) == 1 / 450


def test_missing_prime_and_missing_pair_fail(catalog_reference):
    doc = _passing_catalog(catalog_reference)
    del doc["reports"][3]["primes"][-1]
    del doc["reports"][-1]
    assert _fail_frac(doc, catalog_reference) == 2 / 450


def test_errors_fail_every_pair(catalog_reference):
    assert _fail_frac({"error": {"type": "InvalidModel"}}, catalog_reference) == 1
    res = oracle.catalog_result(1, "", catalog_reference)
    assert len(res["failures"]) == 450


def test_adjunction_check():
    # 1/3(1,1): one -3 curve with discrepancy -1/3; 1/5(1,2): chain -3, -2.
    assert oracle.check_adjunction(3, 1, {"E1": "-1/3"}) == []
    assert oracle.check_adjunction(3, 1, {"E1": "-1/2"})
    assert oracle.check_adjunction(5, 2, {"E1": "-2/5", "E2": "-1/5"}) == []
    assert oracle.check_adjunction(4, 3, {}) == []  # A_3: crepant
    assert oracle.check_adjunction(4, 3, {"E4": "0"}) == ["relative canonical has unknown labels ['E4']"]


def test_query_oracle_catches_a_test_ideal_unequal_to_the_multiplier_ideal():
    q = {"kind": "test-ideal", "r": 3, "a": 1}
    tau = json.dumps({"ideal": {"generators": [[1, 0], [1, 1]]}})
    j = json.dumps({"ideal": {"generators": [[1, 0], [1, 1], [1, 2]]}})
    assert oracle.check_query(q, 0, tau, tau, None)[0] == []
    assert oracle.check_query(q, 0, tau, j, None)[0]
    assert oracle.check_query(q, 1, tau, j, None)[0] == ["exit code 1"]


def test_query_oracle_compares_content_not_bytes():
    q = {"kind": "m-limiting", "r": 3, "a": 1}
    doc = {"ideal": {"generators": [[1, 2], [1, 0]], "is_unit": False}, "m": 1, "relative_canonical_m": {"E1": "-2/6"}}
    digest = oracle.content_digest(oracle.query_content("m-limiting", doc))
    reordered = {"relative_canonical_m": {"E1": "-1/3"}, "ideal": {"generators": [[1, 0], [1, 2]]}}
    assert oracle.check_query(q, 0, json.dumps(reordered), None, digest)[0] == []
    reordered["ideal"]["generators"].pop()
    assert oracle.check_query(q, 0, json.dumps(reordered), None, digest)[0]


# -- inputs and tracing ----------------------------------------------------


def test_inputs_follow_the_seed():
    take = lambda seed, n: [i for (i, _), _ in zip(workloads.query_stream(seed), range(n))]
    assert take(3, 400) == take(3, 400) and take(3, 400) != take(4, 400)
    pool = workloads.query_pool()
    assert sorted(take(3, len(pool))) == list(range(len(pool)))  # a pass visits the whole pool
    strata = {(q["kind"], q["r"]) for q in pool[:315]}
    assert len(strata) == 315 and {k for k, _ in strata} == set(workloads.QUERY_KINDS)
    sweeps = [workloads.scaleout_sweep(seed, k) for seed in (0, 5) for k in (0, 1)]
    assert workloads.scaleout_sweep(5, 1) == sweeps[3] and len({tuple(sw) for sw in sweeps}) == 4
    assert all(sorted(sw) == sorted(sweeps[0]) for sw in sweeps)  # the seed orders the same commands
    assert sorted({argv[1] for argv in sweeps[0]}) == ["cyclic:101/37", "cyclic:31/7", "cyclic:61/25"]


def test_tracer_patches_every_import_alias():
    def child():
        import surfideals
        import surfideals.cli  # noqa: F401

        modules = [m for name, m in sys.modules.items() if name.startswith("surfideals")]
        originals = {id(getattr(sys.modules[f"surfideals.{mod}"], path)) for mod, path in TRACED if "." not in path}
        Tracer().install()
        left = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items() if id(v) in originals]
        aliases = [surfideals.compare.multiplier_ideal, surfideals.frobenius.multiplier_ideal,
                   surfideals.frobenius.section_module_min_gens, surfideals.compare.hj_resolve,
                   surfideals.compare.test_ideal_detailed, surfideals.toric.MonomialIdeal.from_points]
        return {"left": left, "wrapped": all(hasattr(f, "__wrapped__") for f in aliases)}

    assert run_forked(child) == {"left": [], "wrapped": True}
