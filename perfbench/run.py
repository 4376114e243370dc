"""The surfideals benchmark.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout.  Runs one workload (or `all`),
checks every output, prints each metric by name with its unit and ends
with one JSON line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, measured with no wrapper
installed; with --trace 1 they are the per-layer ones of a traced run of
the same inputs.  perfbench/GLOSSARY.md defines every name.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads
from proc import ChildFailed, run_forked
from tracer import FROM_POINTS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

WORKLOADS = ("catalog", "scaleout", "queries")
# Fresh interpreters timed before the workload, and as many after it.
# Import times drift by a fifth within seconds, so the samples are many
# and span the run.
SETUP_REPEATS = 20
RSS_SOURCE = "getrusage(RUSAGE_SELF).ru_maxrss in the operation's forked child (KiB)"

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Traced functions reported per layer, with the aggregates kept for each.
LAYER_TIMES = (
    ("toric.section_module_min_gens", ("calls", "self_s")),
    (FROM_POINTS, ("calls", "self_s", "points_in", "gens_out")),
    ("toric.MonomialIdeal.sum", ("calls", "self_s")),
    ("toric.MonomialIdeal.intersect", ("calls", "self_s")),
    ("toric.MonomialIdeal.issubset", ("calls", "self_s")),
    ("toric.MonomialIdeal.contains_point", ("calls", "self_s")),
    ("toric.hj_resolve", ("calls", "self_s")),
    ("frobenius.trace_maps", ("calls", "self_s")),
    ("frobenius.trace_apply", ("calls", "self_s")),
    ("frobenius.test_ideal_detailed", ("calls",)),
    ("frobenius.test_ideal_of_divisor", ("calls",)),
    ("frobenius.boundary_containment_check", ("incl_s",)),
    ("frobenius.numerical_containment_check", ("incl_s",)),
    ("multiplier.multiplier_ideal", ("self_s",)),
    ("multiplier.jumping_numbers", ("self_s",)),
    ("resolution.relative_canonical", ("calls", "self_s")),
    ("linalg.solve", ("calls", "self_s")),
    ("linalg.is_negative_definite", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
    ("cli.emit", ("self_s",)),
)
LAYER_CACHES = (
    "toric._section_min_gens_cached",
    "frobenius._trace_maps_cached",
    "frobenius._trace_image_cached",
    "frobenius._test_ideal_cached",
)
UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "points_in": "count", "gens_out": "count"}
LAYER_EXTRA = (
    ("frobenius.sweeps_total", "count"),
    ("compare.pair_p50_ms", "ms"),
    ("compare.pair_p95_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    spec = [(f"{name}.{s}", UNITS[s]) for name, suffixes in LAYER_TIMES for s in suffixes]
    spec += [(f"{name}.{s}", unit) for name in LAYER_CACHES for s, unit in (("hit_ratio", "ratio"), ("entries", "count"))]
    return spec + list(LAYER_EXTRA)


# -- one operation -----------------------------------------------------------


def cli_op(argvs, check, trace: bool = False, untimed_argv=None) -> dict:
    """Run the commands `surfideals <argv>` for each argv in `argvs`, back
    to back through cli.main, in one fresh forked process.

    Returns the total wall time of the cli.main calls, the child's peak
    RSS read right after the last one and, when traced, the tracer's
    report and the sum of the outputs' `sweeps` fields.  The outputs are
    checked in the child after the measurement:
    `check(exit_codes, stdouts, untimed_stdout)` returns {"attempted",
    "failures", "units", "content"}, so the benchmark process never holds
    an output and every forked child starts from the same small parent.
    `untimed_argv` runs in the same child after the measurement and
    feeds the oracle.
    """

    def child() -> dict:
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        from surfideals import cli

        codes, outs, seconds = [], [], 0.0
        for argv in argvs:
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback fails the operation, not the benchmark
                code = f"{type(exc).__name__}: {exc}"
            seconds += time.perf_counter() - start
            codes.append(code)
            outs.append(buf.getvalue())
        res = {"seconds": seconds, "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            res["trace"] = tracer.report()
            res["sweeps"] = sum(sweeps_in(out) for out in outs)
        untimed_out = None
        if untimed_argv is not None and codes == [0]:
            with contextlib.redirect_stdout(io.StringIO()) as extra:
                cli.main(list(untimed_argv))
            untimed_out = extra.getvalue()
        res.update(check(codes, outs, untimed_out))
        return res

    start = time.perf_counter()
    try:
        res = run_forked(child)
    except ChildFailed as exc:
        res = {"exception": str(exc)}
    if "exception" in res:
        res = {"error": res["exception"], "seconds": time.perf_counter() - start, "rss_kib": 0}
    return res


def _load(name: str):
    with open(REFERENCE / name, encoding="utf-8") as fh:
        return json.load(fh)


class Run:
    """What one workload run measured and checked.

    An operation is what the user waits for: one `compare catalog`
    command, one scale-out sweep, one query.  `attempted` and `failed`
    count the oracle's units: catalog pairs, scale-out pairs, queries.
    """

    def __init__(self, info: dict):
        self.info = info
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.units = 0
        self.op_seconds: list[float] = []
        self.op_rss_kib: list[int] = []
        self.traced: list[dict] = []
        self.untraced_seconds = 0.0
        self.sweeps = 0
        self._start = time.monotonic()

    def record(self, res: dict, attempted: int, label: str) -> None:
        """Count one process's checked units; a process that returned no
        check result fails all `attempted` of its units."""
        if "failures" not in res:
            res = {"attempted": attempted, "failures": [[label, [f"no result: {res['error']}"]]] * attempted, "units": 0}
        self.attempted += res["attempted"]
        self.failed += len(res["failures"])
        self.units += res["units"]
        for name, problems in res["failures"][: max(0, 20 - len(self.problems))]:
            self.problems.append(f"{name}: {'; '.join(problems)}")

    def more(self, budget: float) -> bool:
        """Start another operation while more than half a typical
        operation's time is left (the first one always runs)."""
        if not self.op_seconds:
            return True
        return time.monotonic() - self._start + 0.5 * statistics.median(self.op_seconds) <= budget

    def add_op(self, seconds: float, rss_kib: int) -> None:
        self.op_seconds.append(seconds)
        self.op_rss_kib.append(rss_kib)

    def pair_traced(self, label: str, untraced: dict, traced: dict) -> None:
        """Keep a traced process; its checked content must equal that of
        the untraced run of the same inputs.  In a traced run an
        operation's time is that of the pair, untraced plus traced."""
        same = untraced.get("content") is not None and untraced.get("content") == traced.get("content")
        self.record({"attempted": 1, "failures": [] if same else [[label, ["traced and untraced outputs differ"]]],
                     "units": 0}, 1, label)
        self.traced.append(traced)
        self.untraced_seconds += untraced["seconds"]
        self.op_seconds.append(untraced["seconds"] + traced["seconds"])
        self.sweeps += traced.get("sweeps", 0)


def sweeps_in(out: str) -> int:
    """The sum of the `sweeps` fields of one output (closure sweeps)."""
    try:
        doc = json.loads(out)
    except ValueError:
        return 0
    if not isinstance(doc, dict):
        return 0
    reports = doc.get("reports") or ([doc["report"]] if "report" in doc else [])
    total = sum(v.get("sweeps", 0) for rep in reports for v in rep.get("primes", []))
    return total + (doc["sweeps"] if isinstance(doc.get("sweeps"), int) else 0)


# -- workloads ---------------------------------------------------------------


def _primes_arg(size: dict, reference: dict) -> tuple[list[str], dict]:
    if "primes" not in size:
        return [], reference
    return ["--primes", ",".join(map(str, size["primes"]))], dict(reference, primes=size["primes"])


def run_catalog(seconds: float, trace: bool, size: dict) -> Run:
    extra, reference = _primes_arg(size, _load("catalog.json"))
    argv = list(workloads.CATALOG_ARGV) + extra
    run = Run({"operation": "one `compare catalog` command", "unit": "computed (pair, prime) verdict"})
    digests = set()

    def check(codes, outs, _):
        res = oracle.catalog_result(codes[0], outs[0], reference)
        res["sha256"] = hashlib.sha256(outs[0].encode()).hexdigest()
        return res

    def job(traced: bool) -> dict:
        res = cli_op([argv], check, trace=traced)
        run.record(res, len(reference["pairs"]), "compare catalog")
        if "sha256" in res:
            digests.add(res["sha256"])
        return res

    if trace:
        run.pair_traced("compare catalog", job(False), job(True))
    else:
        while run.more(seconds):
            res = job(False)
            run.add_op(res["seconds"], res["rss_kib"])
    run.info["catalog_stdout_sha256"] = " ".join(sorted(digests))
    return run


def run_scaleout(seed: int, seconds: float, trace: bool, size: dict) -> Run:
    extra, reference = _primes_arg(size, _load("scaleout.json"))
    rs = size.get("scaleout_rs")
    run = Run({"operation": "one sweep: `compare cyclic:r/a --z boundary --lambda l` for r/a in "
                            f"{[f'{r}/{a}' for r, a in workloads.SCALEOUT_MODELS if rs is None or r in rs]}, "
                            f"l in {list(workloads.SCALEOUT_LAMBDAS)}, in one process",
               "unit": "computed (pair, prime) verdict"})

    def check(argvs, codes, outs):
        results = []
        for argv, code, out in zip(argvs, codes, outs):
            model, lam = argv[1], argv[5]
            r, a = (int(x) for x in model.removeprefix("cyclic:").split("/"))
            ref = reference["multiplier_ideal"][f"{r}/{a}|{lam}"]
            results.append(oracle.compare_result(code, out, r, reference["primes"], ref, f"{model} lambda={lam}"))
        return oracle.merge_results(results)

    def sweep(k: int, traced: bool) -> dict:
        argvs = workloads.scaleout_sweep(seed, k, rs)
        res = cli_op([list(argv) + extra for argv in argvs], lambda codes, outs, _: check(argvs, codes, outs), trace=traced)
        run.record(res, len(argvs), f"sweep {k}")
        return res

    if trace:
        run.pair_traced("sweep 0", sweep(0, False), sweep(0, True))
    else:
        for k in itertools.count():
            if not run.more(seconds):
                break
            res = sweep(k, False)
            run.add_op(res["seconds"], res["rss_kib"])
    run.info["first sweep order"] = " ".join(f"{argv[1]}@{argv[5]}" for argv in workloads.scaleout_sweep(seed, 0, rs))
    return run


def run_queries(seed: int, seconds: float, trace: bool, size: dict) -> Run:
    digests = _load("queries.json")["digests"]
    run = Run({"operation": "one query", "unit": "answered query"})
    limit = size.get("queries")
    for n, (i, q) in enumerate(workloads.query_stream(seed)):
        if (n >= limit) if limit is not None else not run.more(seconds):
            break
        argv = workloads.query_argv(q)
        untimed = workloads.mult_ideal_argv(q) if q["kind"] == "test-ideal" else None
        ref = digests[i]
        label = f"pool query {i} `{' '.join(argv)}`"

        def check(codes, outs, mult_out, q=q, ref=ref, label=label):
            return oracle.query_result(q, codes[0], outs[0], mult_out, ref, label)

        res = cli_op([argv], check, untimed_argv=untimed)
        run.record(res, 1, label)
        if trace:
            run.pair_traced(label, res, cli_op([argv], check, trace=True, untimed_argv=untimed))
        else:
            run.add_op(res["seconds"], res["rss_kib"])
    run.info["pool"] = f"{len(digests)} queries; this run made {run.attempted} of them"
    return run


# -- metrics -----------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def setup_samples(repeats: int) -> list[float]:
    """Times for `repeats` fresh interpreters to import surfideals.cli."""
    code = "import time; t = time.perf_counter(); import surfideals.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def end_to_end_metrics(run: Run, setup_s: float) -> dict:
    return {
        "throughput_per_s": run.units / sum(run.op_seconds),
        "latency_p50_ms": 1000 * percentile(run.op_seconds, 50),
        "latency_p95_ms": 1000 * percentile(run.op_seconds, 95),
        "peak_rss_mb": statistics.median(run.op_rss_kib) / 1024,
        "setup_s": setup_s,
    }


def merge_traces(traced: list[dict]) -> dict:
    """Sum the tracer reports of all traced processes: per-name
    aggregates, cache counters (entries: the largest process) and spans."""
    stats: dict[str, list] = {}
    caches: dict[str, dict] = {}
    counts = {"points_in": 0, "gens_out": 0}
    spans, missing = [], set()
    for res in traced:
        tr = res.get("trace")
        if tr is None:
            continue
        for name, values in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, info in tr["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0, "entries": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["entries"] = max(acc["entries"], info["entries"])
        for key in counts:
            counts[key] += tr[key]
        spans.append(tr["spans"])
        missing.update(tr["missing"])
    top = sorted(((v[2], k) for k, v in stats.items()), reverse=True)
    return {"stats": stats, "caches": caches, "counts": counts, "missing": sorted(missing),
            "top_self_s": [[k, s] for s, k in top], "spans": spans}


def layer_metrics(run: Run, merged: dict) -> dict:
    m = {}
    for name, suffixes in LAYER_TIMES:
        calls, incl, self_s = merged["stats"].get(name, [0, 0.0, 0.0])
        values = {"calls": calls, "self_s": self_s, "incl_s": incl, **merged["counts"]}
        m.update({f"{name}.{s}": values[s] for s in suffixes})
    for name in LAYER_CACHES:
        info = merged["caches"].get(name, {"hits": 0, "misses": 0, "entries": 0})
        lookups = info["hits"] + info["misses"]
        m[f"{name}.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
        m[f"{name}.entries"] = info["entries"]
    pair_ms = [1000 * (s[3] - s[2]) for spans in merged["spans"] for s in spans if s[1] == "compare.compare_pair"]
    m["frobenius.sweeps_total"] = run.sweeps
    m["compare.pair_p50_ms"] = percentile(pair_ms, 50) if pair_ms else 0.0
    m["compare.pair_p95_ms"] = percentile(pair_ms, 95) if pair_ms else 0.0
    traced_seconds = sum(res["seconds"] for res in run.traced)
    m["trace.overhead_frac"] = traced_seconds / run.untraced_seconds - 1
    return m


# -- environment and reporting ---------------------------------------------


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": source.hexdigest()[:16], "seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(), "rss": RSS_SOURCE}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: dict | None = None) -> dict:
    """Run one workload; returns the result line and its details.

    `size` shrinks the inputs for the benchmark's own tests: "primes",
    "scaleout_rs", "queries" (a count) and "setup_repeats".
    """
    size = size or {}
    setup_repeats = 0 if trace else size.get("setup_repeats", SETUP_REPEATS)
    setup = setup_samples(setup_repeats)
    if name == "catalog":
        run = run_catalog(seconds, trace, size)
    elif name == "scaleout":
        run = run_scaleout(seed, seconds, trace, size)
    else:
        run = run_queries(seed, seconds, trace, size)
    setup += setup_samples(setup_repeats)
    if trace:
        merged = merge_traces(run.traced)
        metrics, units = layer_metrics(run, merged), dict(per_layer_spec())
    else:
        merged = None
        metrics, units = end_to_end_metrics(run, statistics.median(setup)), dict(END_TO_END)
    line = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"line": line, "run": run, "trace": merged, "env": environment(seed), "setup_samples": setup}


def print_summary(name: str, result: dict, seconds: float, trace: bool) -> None:
    line, run, env = result["line"], result["run"], result["env"]
    print(f"perfbench {name}: seed={env['seed']} seconds={seconds:g} trace={int(trace)}")
    print("env: " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for key, value in run.info.items():
        print(f"{key}: {value}")
    if not trace:
        print(f"samples: {len(run.op_seconds)} operations, {run.units} units of work")
    for metric, body in line["metrics"].items():
        print(f"  {metric:48s} {body['value']:.6g} {body['unit']}")
    frac = line["failed"] / line["attempted"]
    print(f"  {'fail_frac':48s} {frac:.6g} ratio ({line['failed']} of {line['attempted']})")
    for problem in run.problems:
        print(f"  FAIL {problem}")
    if trace:
        print("top self time:")
        for label, self_s in result["trace"]["top_self_s"][:5]:
            print(f"  {label:48s} {self_s:.3f} s")


def write_details(name: str, result: dict, trace: bool) -> Path:
    """Keep the run's environment, samples, problems and trace on disk."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{result['env']['seed']}-trace{int(trace)}.json"
    run = result["run"]
    doc = {"env": result["env"], "result": result["line"], "info": run.info, "problems": run.problems,
           "op_seconds": run.op_seconds, "op_rss_kib": run.op_rss_kib, "setup_samples": result["setup_samples"],
           "trace": result["trace"]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The surfideals benchmark; see perfbench/GLOSSARY.md.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "surfideals" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'surfideals'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import surfideals.cli  # noqa: F401  (imported once here; only forked children call it)

    trace = bool(args.trace)
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(name, args.seed, args.seconds, trace)
        print_summary(name, result, args.seconds, trace)
        print(f"details: {write_details(name, result, trace).relative_to(ROOT)}")
        print(json.dumps(result["line"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
