import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, leading_minors
from test_linalg import _naive_gauss
import surfideals
from surfideals import compare, frobenius, linalg, multiplier, resolution, toric
from surfideals.cli import COMMANDS, _WrittenOnce, build_parser, emit, load_model, main
from surfideals.divisors import DivisorLabel
from surfideals.toric import MonomialIdeal, hj_resolve


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_resolve_a3(capsys):
    code, doc = run_cli(capsys, "resolve", "--r", "4", "--a", "3")
    assert code == 0
    assert doc["chain"] == [-2, -2, -2]
    assert doc["discrepancies"] == {"E1": "0", "E2": "0", "E3": "0"}
    assert doc["cartier_index"] == 1
    assert doc["class_group_order"] == 4


def test_resolve_rejects_bad_parameters(capsys):
    code, doc = run_cli(capsys, "resolve", "--r", "4", "--a", "2")
    assert code == 1
    assert doc["error"]["type"] == "BadParameters"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resolve", "--r", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(capsys, monkeypatch, jobs):
    # refused by the parser: no thread pool is built and nothing is printed
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(compare, "compare_catalog", no_pool)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "catalog", "--primes", "2,3", "--jobs", jobs])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_catalog_bytes_do_not_depend_on_jobs(capsys):
    # a fast companion of acceptance criterion 8, in process
    one = _stdout(capsys, "compare", "catalog", "--primes", "2,3", "--jobs", "1")
    assert _stdout(capsys, "compare", "catalog", "--primes", "2,3", "--jobs", "2") == one


def _count_everywhere(monkeypatch, fns, on_result=lambda fn, args, result: None) -> dict:
    """Wrap each of `fns` with a counter wherever a `surfideals` module holds
    it, as the benchmark's tracer wraps it; returns fn -> calls so far."""
    counted = dict.fromkeys(fns, 0)

    def counter(fn):
        def wrapper(*args, **kwargs):
            counted[fn] += 1
            result = fn(*args, **kwargs)
            on_result(fn, args, result)
            return result
        return wrapper

    wrappers = {fn: counter(fn) for fn in counted}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("surfideals"):
            for key, value in list(vars(mod).items()):
                for fn, wrapper in wrappers.items():
                    if value is fn:
                        monkeypatch.setattr(mod, key, wrapper)
    return counted


def test_catalog_computes_each_distinct_pair_once(capsys, monkeypatch):
    # 45 models, 225 distinct pairs, one lockstep closure per distinct pair,
    # which closes each of its primes once and returns one result per prime
    closure, closed = frobenius._closure, []

    def record(fn, args, result):
        if fn is closure:
            closed.append((tuple(args[1]), len(result)))

    counted = _count_everywhere(monkeypatch, (compare.compare_pair, closure, toric.hj_resolve), record)
    _stdout(capsys, "compare", "catalog", "--primes", "2,3")
    assert list(counted.values()) == [225, 225, 45]
    assert closed == [((2, 3), 2)] * 225


def test_catalog_checks_each_prime_once_and_shares_stable_corners(capsys, monkeypatch):
    # the command's one prime sweep checks each prime once, not once per
    # pair; each closure round takes the corners of every prime past its
    # stable-depth bound in one `_run_corners` call
    context, run_corners = frobenius.CharPContext, frobenius._run_corners
    counted = _count_everywhere(monkeypatch, (context, run_corners))
    _stdout(capsys, "compare", "catalog", "--primes", "2,3,5,7")
    assert counted[context] == 4
    counted[run_corners] = 0
    _stdout(capsys, "compare", "catalog")
    assert counted[context] == 4 + len(compare.PRIMES_DEFAULT)
    assert counted[run_corners] <= 1791


ONE_OF_EACH = [
    ("resolve", "--r", "4", "--a", "3"),
    ("pullback", "cyclic:5/2", "--d", '{"BL": "1"}'),
    ("discrepancy", "cyclic:5/2"),
    ("mult-ideal", "cyclic:5/2", "--z", "boundary", "--lambda", "1/2"),
    ("m-limiting", "cyclic:5/2", "--m", "2"),
    ("jumps", "cyclic:5/2", "--lambda-max", "1"),
    ("test-ideal", "cyclic:5/2", "--p", "3"),
    ("compare", "cyclic:5/2", "--primes", "2,3"),
    ("check-negativity", "cyclic:5/2", "--d", '{"E1": "-1"}'),
    ("catalog",),
]


def test_a_command_spelled_in_full_builds_no_parser(capsys, monkeypatch):
    # argparse reads only a line outside the plain spelling: an abbreviation,
    # a value after a space that starts with '-', or a line naming no command
    assert sorted(argv[0] for argv in ONE_OF_EACH) == sorted(COMMANDS)
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    for argv in ONE_OF_EACH:
        built.clear()
        code, _ = run_cli(capsys, *argv)
        assert (code, len(built)) == (0, 0), argv
    full = run_cli(capsys, "mult-ideal", "cyclic:5/2", "--z", "boundary", "--lambda", "1/2")
    built.clear()
    assert run_cli(capsys, "mult-ideal", "cyclic:5/2", "--z", "boundary", "--lam", "1/2") == full
    assert len(built) == 1
    built.clear()
    error = {"error": {"type": "InvalidModel", "message": "the scaling factor must be >= 0"}}
    assert run_cli(capsys, "mult-ideal", "cyclic:5/2", "--lambda", "-1/2") == (1, error)
    assert len(built) == 1
    for argv in ([], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


IMPORT_GUARD = """
import contextlib, io, json, sys
before = set(sys.modules)
from surfideals.cli import main
imported = [m for m in ("dataclasses", "inspect") if m in set(sys.modules) - before]
with contextlib.redirect_stdout(io.StringIO()):
    main(["discrepancy", "cyclic:5/2"])
loaded = [m for m in ("argparse", "gettext", "locale") if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        main(["discrepancy", "-h"])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([imported, loaded, code, out.getvalue()]))
"""


def test_a_plain_line_loads_no_argparse(monkeypatch):
    # a fresh interpreter: this one has imported argparse already; the
    # import itself adds neither dataclasses nor inspect (a site that
    # preloads one of them does not count)
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal's width
    src = str(Path(compare.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD], env=env, capture_output=True, text=True, check=True)
    imported, loaded, code, help_text = json.loads(done.stdout)
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert (imported, loaded, code, help_text) == ([], [], 0, subparsers.choices["discrepancy"].format_help())


JOBS_GUARD = """
import contextlib, io, json, sys
from surfideals.cli import main
outs = []
for jobs in ("8", "1"):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["compare", "catalog", "--primes", "2,3", "--jobs", jobs])
    outs.append((code, out.getvalue()))
print(json.dumps(["concurrent.futures" in sys.modules, outs]))
"""


def test_catalog_jobs_run_no_pool():
    # a fresh interpreter (this one may have imported concurrent.futures):
    # --jobs 8 loads no executor and prints the bytes of --jobs 1
    src = str(Path(compare.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", JOBS_GUARD], env=env, capture_output=True, text=True, check=True)
    loaded, ((code8, out8), (code1, out1)) = json.loads(done.stdout)
    assert (loaded, code8, code1) == (False, 0, 0)
    assert out8 == out1 and out1.startswith("{")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_help_is_the_full_parsers(capsys, name):
    # `surfideals <name> -h` prints what the subparser of the full parser prints
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    with pytest.raises(SystemExit) as exc:
        main([name, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == subparsers.choices[name].format_help()


def test_mult_ideal_klt(capsys):
    code, doc = run_cli(capsys, "mult-ideal", "cyclic:3/1", "--z", "0")
    assert code == 0
    assert doc["ideal"] == {"generators": [[0, 0]], "is_unit": True}


def test_mult_ideal_smooth_chart(capsys):
    code, doc = run_cli(
        capsys, "mult-ideal", "cyclic:1/1", "--z", '{"BR": "2", "BL": "1"}', "--lambda", "5/6"
    )
    assert code == 0
    assert doc["ideal"]["generators"] == [[1, 0]]


def test_test_ideal_smooth_chart(capsys):
    code, doc = run_cli(
        capsys, "test-ideal", "cyclic:1/1", "--z", '{"BR": "1"}', "--lambda", "3/2", "--p", "2"
    )
    assert code == 0
    assert doc["ideal"]["generators"] == [[1, 0]]


@pytest.mark.parametrize(
    "argv",
    [
        ("mult-ideal", "cyclic:3/1", "--lambda", "abc"),
        ("test-ideal", "cyclic:3/1", "--lambda", "1/0", "--p", "5"),
        ("mult-ideal", "cyclic:3/1", "--z", '{"BR": 1.5}'),
        ("mult-ideal", "cyclic:5/2", "--z", '{"BL": true}', "--lambda", "1"),
    ],
)
def test_bad_rationals_are_bad_parameters(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert doc["error"]["type"] == "BadParameters"


@pytest.mark.parametrize(
    "argv",
    [
        ("mult-ideal", "cyclic:2503/2", "--z", "boundary", "--lambda", "1/2"),
        ("test-ideal", "cyclic:2503/2", "--z", "boundary", "--lambda", "1/2", "--p", "5"),
        ("mult-ideal", "cyclic:4000003/2", "--z", "boundary", "--lambda", "1/2"),
    ],
)
def test_large_index_section_scan(capsys, argv):
    # a section scan visits at most about r values of s, so r in the thousands
    # is in reach; the cap counts the s visited, and the unit ideal's scan
    # stops at its first s even for r past ENUMERATION_LIMIT
    code, doc = run_cli(capsys, *argv)
    assert code == 0
    assert doc["ideal"] == {"generators": [[0, 0]], "is_unit": True}


@pytest.mark.parametrize(
    "z,lam",
    [('{"BL":"-1"}', "0"), ('{"E1":"1"}', "1"), ("boundary", "-1")],
)
def test_invalid_pair_gets_one_error_from_every_pair_command(capsys, z, lam):
    # PairSpec is the one validator of a toric pair, lambda = 0 included
    pair = ("cyclic:5/2", "--z", z, "--lambda", lam)
    results = [run_cli(capsys, "mult-ideal", *pair), run_cli(capsys, "test-ideal", *pair, "--p", "3"),
               run_cli(capsys, "compare", *pair, "--primes", "3")]
    assert results[0][0] == 1 and results[0][1]["error"]["type"] == "InvalidModel"
    assert results == [results[0]] * 3


@pytest.mark.parametrize(
    "command,flag,message",
    [("mult-ideal", "--lambda", "the scaling factor must be >= 0"), ("jumps", "--lambda-max", "lam_max must be positive")],
)
def test_negative_rational_reaches_the_handler_in_every_spelling(capsys, command, flag, message):
    # argparse reads `-1/2` after a space as an option unless it is told otherwise
    spellings = [(flag, "-1/2"), (f"{flag}=-1/2",), (flag, "-1")]
    results = [run_cli(capsys, command, "cyclic:5/2", *spelling) for spelling in spellings]
    assert results == [(1, {"error": {"type": "InvalidModel", "message": message}})] * 3


@pytest.mark.parametrize(
    "argv,error,message",
    [
        (("compare", "cyclic:5/2", "--primes", "2,4"), "BadParameters", "4 is not prime"),
        (("pullback", "cyclic:5/2", "--d", '{"E1": "1"}'), "InvalidModel", "model has no extra divisor named 'E1'"),
        (("pullback", "cyclic:5/2", "--d", '{"X": "1"}'), "InvalidModel", "model has no extra divisor named 'X'"),
        (("check-negativity", "cyclic:5/2", "--d", '{"X": "-1"}'), "BadParameters", "unknown divisor label 'X'"),
        (("mult-ideal", "cyclic:5/2", "--z", '{"X": "1"}'), "InvalidModel", "model has no ray named 'X'"),
        (("test-ideal", "cyclic:5/2", "--p", "4"), "BadParameters", "4 is not prime"),
    ],
)
def test_bad_labels_and_primes_are_typed_errors(capsys, argv, error, message):
    assert run_cli(capsys, *argv) == (1, {"error": {"type": error, "message": message}})


@pytest.mark.parametrize(
    "z,lam,message",
    [("1", "-1/2", "the scaling factor must be >= 0"), ("-1", "1/2", "Z must be effective")],
)
def test_dualgraph_pair_must_be_effective(capsys, tmp_path, z, lam, message):
    # a pair on a dual graph is checked as a toric PairSpec is, with the same error
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({"kind": "dualgraph", "curves": [{"label": "E1", "self_intersection": -2}],
                                "extras": [{"label": "C", "meets": [1]}]}))
    expected = (1, {"error": {"type": "InvalidModel", "message": message}})
    assert run_cli(capsys, "mult-ideal", str(path), "--z", json.dumps({"C": z}), "--lambda", lam) == expected
    assert run_cli(capsys, "mult-ideal", "cyclic:2/1", "--z", json.dumps({"BR": z}), "--lambda", lam) == expected


def test_compare_huge_denominator_pair(capsys):
    # ord_2 mod 1000003 is huge, but the closure only goes to the stable
    # depth of the pair, about log_2 of the denominator
    code, doc = run_cli(capsys, "compare", "cyclic:1/1", "--z", '{"BR":"1/1000003"}', "--lambda", "1", "--primes", "2")
    assert code == 0
    assert doc["all_equal"] is True


# The scale-out commands of perfbench/workloads.py (SCALEOUT_MODELS x
# SCALEOUT_LAMBDAS) with the sha256 of their stdout.
SCALEOUT_SHA256 = {
    ("cyclic:31/7", "1/2"): "db137539187a6773abd8f3d474edf57aa6c29b3ee70ba1f16951dde095909b4b",
    ("cyclic:31/7", "5/4"): "699f0dbb91f0aabe8937c946656d765a8b5b05410fd7db2c532cafeab577aa54",
    ("cyclic:61/25", "1/2"): "aad4596b8f39d6d921fbae08879c88e03d657b28753bde349a9d3d00f2113b0d",
    ("cyclic:61/25", "5/4"): "72d3faa4fb960adea71419527c690b46be56edc81bda7e1dfda545b0f47d11ef",
    ("cyclic:101/37", "1/2"): "7c1419fd4c52fada5d168791d3a35280cdde1d5840d4e9a098a54b7cfdd7977f",
    ("cyclic:101/37", "5/4"): "59b4b327024489251cfbcaa2a9f11633cf3451c75f5a16045416d2f0caaf91dd",
}


@pytest.mark.parametrize("model,lam", sorted(SCALEOUT_SHA256))
def test_scaleout_outputs_are_pinned(capsys, model, lam):
    # a change that alters these outputs on purpose updates the digests
    # and says so in CHANGES.md
    code = main(["compare", model, "--z", "boundary", "--lambda", lam])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCALEOUT_SHA256[(model, lam)]


# Many-stair seeds: the seed O_X(-ceil(W)) of `compare --z boundary` on
# 1/r(1,2) has about r/2 stairs, and each closure round maps only the first
# stair of each run of equal t-corners.  The sha256 of their stdout, as
# computed when every round mapped every stair.
MANY_STAIR_SHA256 = {
    ("cyclic:100003/2", "1/2"): "753eaf333fc33c1ad26f1ed547321466b9df4e3eab72da123372d7479c3a591d",
    ("cyclic:10007/2", "1/2"): "985d6037de8bab2f21f4e6baae10abebe7a19c691e1b671f730aaaf2049e4982",
    ("cyclic:10007/2", "5/4"): "61884cb3d34442837b1582fe613a59dc442ba75ce7cac96110dbaaeb09e4029a",
}


@pytest.mark.parametrize("model,lam", sorted(MANY_STAIR_SHA256))
def test_many_stair_outputs_are_pinned(capsys, model, lam):
    code = main(["compare", model, "--z", "boundary", "--lambda", lam])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MANY_STAIR_SHA256[(model, lam)]


# Commands on long chains (1/r(1,r-1) resolves to r - 1 curves, 1/1003(1,501)
# to the chain [3, 2, ..., 2, 3]) with the sha256 of their stdout, as computed
# with every exceptional bound scanned and K^num from the intersection matrix.
LONG_CHAIN_SHA256 = {
    ("compare", "cyclic:10007/10006", "--z", "boundary", "--lambda", "5/4"): "b12ed5aeca7c7d5c18c686b7161897c8ff7e1c74b0b766e67531edfd9846d096",
    ("mult-ideal", "cyclic:1009/1008", "--z", '{"BL": "7/3", "BR": "5/2"}', "--lambda", "7/5"): "d1154682bd236d78bdfa3b501281eede3f98a2962f8f108d791c83e5d03afc5a",
    ("jumps", "cyclic:1009/1008", "--z", "boundary", "--lambda-max", "2"): "4b6f7552db2caf1b49c43f5abd71527b520abe84143334ff20a3ed9cae61228b",
    ("jumps", "cyclic:257/256", "--z", '{"BL": "7/3", "BR": "5/2"}', "--lambda-max", "3"): "6cb0414f7536b1e89cc02ba3829ede5d72cbc7162d854f40e2a6e2895d9e7d74",
    ("m-limiting", "cyclic:1009/1008", "--z", "boundary", "--lambda", "5/4", "--m", "2"): "53dd0ed9b6bb872c0b2ce32f7b4680ec1494baf5f9e3e2101d5b5e547cbf0ebb",
    ("m-limiting", "cyclic:1003/501", "--z", '{"BL": "7/3", "BR": "5/2"}', "--lambda", "7/5", "--m", "3"): "c1c70de3b0ede6037aa97365d1da9e5d4208def74e36818b1c29afeaee438c7a",
    ("m-limiting", "cyclic:10007/5003", "--z", "boundary", "--lambda", "5/4", "--m", "3"): "88ddabf8127480ed72e5be172f27fbac4a72bf50a3b6f18980ff962b48c9e089",
    ("m-limiting", "cyclic:2003/1000", "--z", "boundary", "--lambda", "5/4", "--m", "3"): "a5ee5524ddd7a03f27ce685416f01bca9e733bbb4ba2bd82506fa4e7f658479f",
    ("discrepancy", "cyclic:1003/501"): "c93e724361dc434d1e60c40d245ded1687c3e8b32bc8bec9ba1e57ebb6577a63",
    ("resolve", "--r", "1003", "--a", "501"): "49e1425ff598982ad1ab1fb2b2e459eec4fc15c6f4a7b6107bf3e8d067a9b3fd",
    ("pullback", "cyclic:1003/501", "--d", '{"BL": "7/3", "BR": "5/2"}'): "1d28147d746df055c097a76219560dd8af56ea7d7bf3fb837f6f36229cb1d294",
    ("discrepancy", "cyclic:1009/1008"): "35b5a7c13bf3a92254a29974a5b08dcce1a1780bbd63a9ae94fb632c3f639efd",
    ("resolve", "--r", "1009", "--a", "1008"): "354cdea1127227822d9af2a750caa745a25160a971bb41806ffec619a60f9025",
    ("pullback", "cyclic:1009/1008", "--d", '{"BL": "7/3", "BR": "5/2"}'): "9679669ae3778496048765d8d3b2479fdff36b24ee58cb6e23e6900d04dd1019",
    ("check-negativity", "cyclic:1009/1008", "--d", '{"E1": "-1", "BR": "-1"}'): "acdefc2d1f60c33172f42468cecb5e91e6f45c6bccaba3d93297e5309e251be5",
}


@pytest.mark.parametrize("argv", sorted(LONG_CHAIN_SHA256))
def test_long_chain_outputs_are_pinned(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_CHAIN_SHA256[argv]


def test_test_ideal_at_a_large_prime(capsys):
    # p = 2^61 - 1: the primality test is Miller-Rabin, not trial division,
    # and the closure needs one Frobenius depth
    code, doc = run_cli(capsys, "test-ideal", "cyclic:5/2", "--z", "boundary", "--lambda", "1/2", "--p", str(2**61 - 1))
    assert code == 0
    assert doc["p"] == 2**61 - 1
    assert doc["ideal"] == {"generators": [[0, 0]], "is_unit": True}


def test_compare_single_pair(capsys):
    code, doc = run_cli(capsys, "compare", "cyclic:2/1", "--z", "0", "--primes", "3,5,7")
    assert code == 0
    assert doc["all_equal"] is True
    assert [v["verdict"] for v in doc["report"]["primes"]] == ["equal"] * 3


def test_m_limiting_cli(capsys):
    code, doc = run_cli(capsys, "m-limiting", "cyclic:3/1", "--z", "0", "--m", "1")
    assert code == 0
    assert doc["ideal"]["generators"] == [[1, 0], [1, 1], [1, 2], [1, 3]]
    code, doc = run_cli(capsys, "m-limiting", "cyclic:3/1", "--z", "0", "--m", "3")
    assert doc["ideal"]["is_unit"] is True


def test_jumps_cli(capsys):
    code, doc = run_cli(capsys, "jumps", "cyclic:1/1", "--z", '{"BR": "1"}', "--lambda-max", "2")
    assert code == 0
    assert [j["lambda"] for j in doc["jumps"]] == ["1", "2"]
    assert [j["generators"] for j in doc["jumps"]] == [[[1, 0]], [[2, 0]]]


@pytest.mark.parametrize(
    "argv,count",
    [
        (("jumps", "cyclic:3/1", "--z", '{"BR": "1e5"}'), 200_000),
        (("jumps", "cyclic:3/1", "--lambda-max", "1000000000"), 2_000_000_000),
    ],
)
def test_jumps_refuses_too_many_candidates(capsys, argv, count):
    # the candidates are counted before any ideal is built, so the refusal
    # is immediate however large the count
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert doc["error"]["type"] == "BadParameters"
    assert str(count) in doc["error"]["message"] and str(multiplier.JUMPS_LIMIT) in doc["error"]["message"]


def test_jumps_below_the_limit_succeed(capsys):
    # 20,000 candidates, each of them a jump: J(t B_right) = O_X(-floor(t B_right))
    code, doc = run_cli(capsys, "jumps", "cyclic:3/1", "--z", '{"BR": "1e4"}')
    assert code == 0
    assert [j["lambda"] for j in doc["jumps"][:2]] == ["1/10000", "1/5000"]
    assert len(doc["jumps"]) == 20_000


def test_check_negativity_cli(capsys):
    code, doc = run_cli(capsys, "check-negativity", "cyclic:2/1", "--d", '{"E1": "-1/2"}')
    assert code == 0
    assert doc == {"hypotheses_hold": True, "nonpositive": True, "verdict": True}


@pytest.mark.parametrize("kind", ["cyclic", "dualgraph"])
def test_check_negativity_intersects_once(capsys, monkeypatch, tmp_path, kind):
    # the hypotheses, D <= 0 and the verdict come from one vector of D . E_j
    cls, address = toric.ToricSurfaceModel, "cyclic:5/2"
    if kind == "dualgraph":
        cls, address = resolution.ResolutionModel, str(tmp_path / "a2.json")
        (tmp_path / "a2.json").write_text(json.dumps(A2_FILE))
    calls = []
    intersect = cls.intersect_with_curves
    monkeypatch.setattr(cls, "intersect_with_curves", lambda self, d: calls.append(d) or intersect(self, d))
    code, doc = run_cli(capsys, "check-negativity", address, "--d", '{"E1": "-1", "E2": "-1/2"}')
    assert (code, doc) == (0, {"hypotheses_hold": True, "nonpositive": True, "verdict": True})
    assert len(calls) == 1


def test_catalog_cli(capsys):
    code, doc = run_cli(capsys, "catalog")
    assert code == 0
    assert len(doc["pairs"]) == 450
    assert doc["pairs"][0]["id"].startswith("cyclic:2/1")
    assert doc["primes"][-1] == 31


def test_discrepancy_and_pullback_on_model_file(capsys, tmp_path):
    model = {
        "kind": "dualgraph",
        "curves": [
            {"label": "E1", "self_intersection": -2},
            {"label": "E2", "self_intersection": -2},
        ],
        "intersections": [[0, 1, 1]],
        "extras": [{"label": "C", "kind": "strict-transform", "meets": [1, 0], "pushforward": "1"}],
    }
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(model))
    code, doc = run_cli(capsys, "discrepancy", str(path))
    assert code == 0
    assert doc["discrepancies"] == {"E1": "0", "E2": "0"}
    code, doc = run_cli(capsys, "pullback", str(path), "--d", '{"C": "1"}')
    assert code == 0
    assert doc["pullback"] == {"C": "1", "E1": "2/3", "E2": "1/3"}


def test_model_file_errors_have_context(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "dualgraph", "curves": []}')
    code, doc = run_cli(capsys, "discrepancy", str(path))
    assert code == 1
    assert doc["error"]["type"] == "ModelFileError"
    assert "curves" in doc["error"]["message"]
    path.write_text("{not json")
    code, doc = run_cli(capsys, "discrepancy", str(path))
    assert code == 1
    assert ":1:" in doc["error"]["message"]
    path.write_bytes(b"\xff\xfe{}")
    code, doc = run_cli(capsys, "discrepancy", str(path))
    assert code == 1
    assert doc["error"]["type"] == "ModelFileError"
    assert str(path) in doc["error"]["message"]


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion limit


@pytest.mark.parametrize("command,flag", [("mult-ideal", "--z"), ("pullback", "--d"), ("check-negativity", "--d")])
def test_deeply_nested_divisor_is_bad_parameters(capsys, command, flag):
    error = {"type": "BadParameters", "message": "bad divisor: JSON nested too deeply"}
    assert run_cli(capsys, command, "cyclic:5/2", flag, DEEP_JSON) == (1, {"error": error})


def test_deeply_nested_model_file_is_a_model_file_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    error = {"type": "ModelFileError", "message": f"{path}: JSON nested too deeply"}
    assert run_cli(capsys, "discrepancy", str(path)) == (1, {"error": error})


@pytest.mark.parametrize("pushforward,loads", [("1", True), (1, True), ("2/2", True), (None, True), ("7/3", False), (0, False), ("-1", False)])
def test_an_extra_pushes_forward_to_itself(capsys, tmp_path, pushforward, loads):
    # a non-exceptional prime divisor maps onto its image, pi_* C = C_X: a
    # pushforward other than 1 is refused, not ignored
    extra = {"label": "C", "meets": [1, 0]} | ({} if pushforward is None else {"pushforward": pushforward})
    curves = [{"label": "E1", "self_intersection": -2}, {"label": "E2", "self_intersection": -2}]
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"kind": "dualgraph", "curves": curves, "intersections": [[0, 1, 1]], "extras": [extra]}))
    code, doc = run_cli(capsys, "pullback", str(path), "--d", '{"C": "1"}')
    if loads:
        assert (code, doc) == (0, {"pullback": {"C": "1", "E1": "2/3", "E2": "1/3"}})
    else:
        assert code == 1 and doc["error"]["type"] == "ModelFileError"
        assert doc["error"]["message"].startswith(f"{path}: extras[0].pushforward must be 1")


@pytest.mark.parametrize(
    "curve,extra",
    [
        ({"label": "E1", "self_intersection": "x"}, None),
        (3, None),
        ({"label": "E1", "self_intersection": -2}, {"label": "C", "kind": "weird", "meets": [1]}),
        ({"label": "E1", "self_intersection": -2.5}, None),
        ({"label": "E1", "self_intersection": -2, "genus": 0.7}, None),
        ({"label": "E1", "self_intersection": -2}, {"label": "C", "meets": [1], "pushforward": True}),
        ({"label": "E1", "self_intersection": -2}, {"label": "C"}),
        # a list of curves is a graph that lists the pair {0, 1} twice; the last listing used to win
        ([{"label": "E1", "self_intersection": -2}, {"label": "E2", "self_intersection": -2}], None),
    ],
)
def test_malformed_dualgraph_fields_are_model_file_errors(capsys, tmp_path, curve, extra):
    model = {"kind": "dualgraph", "curves": [curve], "extras": [extra] if extra else []}
    if isinstance(curve, list):
        model.update(curves=curve, intersections=[[0, 1, 1], [1, 0, 0]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model))
    code, doc = run_cli(capsys, "discrepancy", str(path))
    assert code == 1
    assert doc["error"]["type"] == "ModelFileError"
    assert str(path) in doc["error"]["message"]


ONE_CURVE = {"kind": "dualgraph", "curves": [{"label": "E1", "self_intersection": -2}]}
TWO_CURVES = dict(ONE_CURVE, curves=[{"label": "E1", "self_intersection": -2}, {"label": "E2", "self_intersection": -2}])


@pytest.mark.parametrize(
    "model,error,message",
    [
        (None, "ModelFileError", "cannot read model file {path!r}: [Errno 2] No such file or directory: {path!r}"),
        ([], "ModelFileError", "{path}: top-level value must be an object"),
        (dict(ONE_CURVE, intersections={}), "ModelFileError", "{path}: field 'intersections' must be a list"),
        (dict(TWO_CURVES, intersections=[[0, 1]]), "ModelFileError", "{path}: intersections[0] must be [i, j, value]"),
        (dict(TWO_CURVES, intersections=[[0, 1, -1]]), "InvalidModel", "off-diagonal intersection numbers must be >= 0"),
        (dict(ONE_CURVE, curves=[{"label": "E1", "self_intersection": -2, "genus": -1}]), "InvalidModel",
         "curve 'E1' has negative genus"),
        (dict(ONE_CURVE, extras=[{"label": "C", "kind": "exceptional", "meets": [1]}]), "InvalidModel",
         "extra 'C' cannot be exceptional"),
        (dict(ONE_CURVE, extras=[{"label": "C", "meets": [-1]}]), "InvalidModel",
         "extra 'C' has negative intersection numbers"),
        (dict(TWO_CURVES, intersections=[[0, 1, 1], [1, 0, 1]]), "ModelFileError",
         "{path}: intersections[1] lists the curves 1 and 0 again (first in intersections[0])"),
        # the exceptional set over a normal point is connected; the first curve out of reach is named
        (dict(TWO_CURVES, curves=[{"label": "E1", "self_intersection": -2}, {"label": "E2", "self_intersection": -3}]),
         "ModelFileError", "{path}: curves[1] ('E2') is not connected to curves[0] through the intersections; "
         "the dual graph must be connected"),
        (dict(ONE_CURVE, curves=[{"label": f"E{i}", "self_intersection": -2} for i in range(1, 5)],
              intersections=[[0, 1, 0], [3, 0, 1], [1, 2, 1]]),
         "ModelFileError", "{path}: curves[1] ('E2') is not connected to curves[0] through the intersections; "
         "the dual graph must be connected"),
    ],
)
def test_model_file_errors_are_typed(capsys, tmp_path, model, error, message):
    path = str(tmp_path / "model.json")
    if model is not None:
        (tmp_path / "model.json").write_text(json.dumps(model))
    assert run_cli(capsys, "discrepancy", path) == (1, {"error": {"type": error, "message": message.format(path=path)}})


def test_elliptic_cone_dualgraph(capsys, tmp_path):
    model = {
        "kind": "dualgraph",
        "curves": [{"label": "E", "self_intersection": -3, "genus": 1}],
        "intersections": [],
    }
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(model))
    code, doc = run_cli(capsys, "discrepancy", str(path))
    assert code == 0
    assert doc["discrepancies"] == {"E": "-1"}
    code, doc = run_cli(capsys, "mult-ideal", str(path), "--z", "0")
    assert code == 0
    assert doc["divisor"] == {"E": "-1"}


def test_printed_ideals_round_trip(capsys):
    code, doc = run_cli(
        capsys, "mult-ideal", "cyclic:5/2", "--z", "boundary", "--lambda", "5/4"
    )
    assert code == 0
    gens = [tuple(g) for g in doc["ideal"]["generators"]]
    model = hj_resolve(5, 2)
    assert MonomialIdeal.from_points(model, gens).gens == tuple(gens)


A2_FILE = {
    "kind": "dualgraph",
    "curves": [{"label": "E1", "self_intersection": -2}, {"label": "E2", "self_intersection": -2}],
    "intersections": [[0, 1, 1]],
    "extras": [{"label": "C", "meets": [1, 0]}],
}


@pytest.mark.parametrize(
    "field,model",
    [
        ("'r'", {"kind": "cyclic", "r": True, "a": 1}),
        ("'a'", {"kind": "cyclic", "r": 5, "a": True}),
        ("curves[0].self_intersection", dict(A2_FILE, curves=[{"label": "E1", "self_intersection": True}])),
        ("curves[0].genus", {"kind": "dualgraph", "curves": [{"label": "E", "self_intersection": -2, "genus": True}]}),
        ("extras[0].meets", dict(A2_FILE, extras=[{"label": "C", "meets": [True, 0]}])),
        ("intersections[0][2]", dict(A2_FILE, intersections=[[0, 1, True]])),
    ],
)
def test_json_booleans_are_not_integers(capsys, tmp_path, field, model):
    # bool is an int subclass in Python, but `true` in a model file is an error
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(model))
    code, doc = run_cli(capsys, "discrepancy", str(path))
    assert code == 1
    assert doc["error"]["type"] == "ModelFileError"
    assert field in doc["error"]["message"]


# Toric commands with the sha256 of their stdout, as computed through the
# intersection matrix before K^num came from the support function.
TORIC_PATH_SHA256 = {
    ("compare", "catalog", "--primes", "2"): "bf9810433865e900c41ad54a2fc613cc8e09181249e2ccbca7938aa0d732c350",
    ("compare", "cyclic:7/3", "--z", "boundary", "--lambda", "5/4", "--primes", "2,3,7"): "6d5567af1e339958e50ddabc57498feb1464c70681540fcf3d15f2719f0d6628",
    ("mult-ideal", "cyclic:13/5", "--z", '{"BL": "3/2", "BR": "1/3"}', "--lambda", "2/3"): "06fde3260c5ae3a43a5d07908eb99dc5f60c74e6c5510bc9e3ec391597db1d32",
    ("m-limiting", "cyclic:12/7", "--z", "boundary", "--lambda", "1/2", "--m", "4"): "ae93f15a634daf505c8f6ccead02db847d3624a260ecd4be5123feec594507ca",
    ("jumps", "cyclic:9/2", "--z", "boundary", "--lambda-max", "2"): "28aa64f149d8dfb55f9cae4aaf6be2ebc37bc159ccb39469d6d30fc5ad2d727e",
    ("test-ideal", "cyclic:11/4", "--z", '{"BL": "1", "BR": "2/5"}', "--lambda", "5/4", "--p", "7"): "a0f5ce182ea93c2634c3e1b336c2de8343b80d66c122d4e545fcffd7fd7cf656",
    ("resolve", "--r", "12", "--a", "7"): "8e1eb17d6052a40ade648c3904d074842629073b77fb464ae4f504b9be4b145d",
    ("discrepancy", "cyclic:12/7"): "49e3769157597083a15f48135ba3aae2204f22931facaf45a0d3b980246b19e7",
    ("pullback", "cyclic:13/5", "--d", '{"BL": "3/2", "BR": "1/3"}'): "75995eda332c790405951731bbb10ed0a503847f7e534624f1a3e94d5e9b6552",
    ("check-negativity", "cyclic:12/7", "--d", '{"E1": "-1", "E2": "-1/2", "BR": "-2"}'): "acdefc2d1f60c33172f42468cecb5e91e6f45c6bccaba3d93297e5309e251be5",
}


def test_every_toric_command_is_checked_for_linear_algebra():
    # a new command joins TORIC_PATH_SHA256, so it cannot skip the check below
    assert {argv[0] for argv in TORIC_PATH_SHA256} == set(COMMANDS) - {"catalog"}


@pytest.mark.parametrize("argv", sorted(TORIC_PATH_SHA256))
def test_toric_commands_solve_no_linear_system(capsys, monkeypatch, argv):
    # K^num is linear on a toric model, so no intersection matrix is built
    # or solved: each function below raises wherever it is referenced
    forbidden = (linalg.solve, linalg.substitute, linalg._eliminate, linalg.is_negative_definite, toric.to_resolution)

    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra on the toric path")

    modules = [m for name, m in list(sys.modules.items()) if m is not None and name.startswith("surfideals")]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if any(value is fn for fn in forbidden):
                monkeypatch.setattr(mod, key, refuse)
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TORIC_PATH_SHA256[argv]


def test_the_package_holds_no_functools_cache():
    # the package keeps no state between calls: a section staircase lives as
    # long as the result that read it, so a sweep over many models in one
    # process keeps none of them; a new cache fails here until it is reviewed
    modules = [importlib.import_module(f"surfideals.{info.name}") for info in pkgutil.iter_modules(surfideals.__path__)]
    scopes = [(mod, mod.__name__, vars(mod)) for mod in modules]
    scopes += [(mod, f"{mod.__name__}.{name}", vars(cls)) for mod in modules for name, cls in vars(mod).items()
               if isinstance(cls, type) and cls.__module__ == mod.__name__]
    caches = {f"{where}.{name}" for mod, where, scope in scopes for name, value in scope.items()
              if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__}
    assert caches == set()


@pytest.mark.parametrize("kind", ["address", "file"])
def test_mult_ideal_loads_its_model_once(capsys, monkeypatch, tmp_path, kind):
    # the pair is built on the model the command has loaded, not on a second load
    address = "cyclic:12/7"
    if kind == "file":
        address = str(tmp_path / "c127.json")
        (tmp_path / "c127.json").write_text(json.dumps({"kind": "cyclic", "r": 12, "a": 7}))
    calls = []
    resolve = toric.hj_resolve
    monkeypatch.setattr(toric, "hj_resolve", lambda *args: calls.append(args) or resolve(*args))
    code, doc = run_cli(capsys, "mult-ideal", address, "--z", "boundary", "--lambda", "1/2")
    assert code == 0 and doc["ideal"]["is_unit"]
    assert calls == [(12, 7)]


def _dualgraph(selfs, edges, extras=()):
    """A dual-graph model file: curves E1, E2, ... of the given
    self-intersections, `edges` as (i, j, m), and extras (label, kind, meets)."""
    return {
        "kind": "dualgraph",
        "curves": [{"label": f"E{i}", "self_intersection": s} for i, s in enumerate(selfs, start=1)],
        "intersections": [list(e) for e in edges],
        "extras": [{"label": label, "kind": kind, "meets": list(meets)} for label, kind, meets in extras],
    }


def _stdout(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cyclic_models_as_dual_graph_files_print_the_same_bytes(capsys, tmp_path):
    # a cyclic model written as its chain of -b_i curves, with the boundary
    # divisors as extras meeting the ends, goes through the graph solve; the
    # fan reads K^num and pullbacks off the support function instead
    path = str(tmp_path / "chain.json")
    models = [hj_resolve(r, a) for r in range(2, 41) for a in range(1, r) if math.gcd(r, a) == 1]
    for model in models:
        s = len(model.hj)
        ends = [("BL", "boundary", [int(i == 0) for i in range(s)]), ("BR", "boundary", [int(i == s - 1) for i in range(s)])]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_dualgraph([-b for b in model.hj], [(i, i + 1, 1) for i in range(s - 1)], ends), fh)
        for tail in (("discrepancy",), ("pullback", "--d", '{"BL": "7/3", "BR": "5/2"}'),
                     ("check-negativity", "--d", '{"E1": "-1", "BR": "-1"}')):
            expected = _stdout(capsys, tail[0], str(model), *tail[1:])
            assert expected[0] == 0
            assert _stdout(capsys, tail[0], path, *tail[1:]) == expected, (model, tail)
    assert len(models) == 489


def _ade(name: str, n: int) -> list[tuple[int, int, int]]:
    """The edges of the Dynkin diagram A_n, D_n or E_n: a chain of n - 1
    curves, and for D and E one more curve on the second or third."""
    if name == "A":
        return [(i, i + 1, 1) for i in range(n - 1)]
    return [(i, i + 1, 1) for i in range(n - 2)] + [({"D": 1, "E": 2}[name], n - 1, 1)]


@pytest.mark.parametrize("name,n", [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", n) for n in (6, 7, 8)])
def test_ade_graphs_of_minus_two_curves_are_crepant(capsys, tmp_path, name, n):
    # the minimal resolution of a rational double point is crepant: every
    # discrepancy is 0
    path = tmp_path / f"{name}{n}.json"
    path.write_text(json.dumps(_dualgraph([-2] * n, _ade(name, n))))
    code, doc = run_cli(capsys, "discrepancy", str(path))
    assert code == 0
    assert doc == {"relative_canonical": {}, "discrepancies": {f"E{i}": "0" for i in range(1, n + 1)}}


@pytest.mark.parametrize("n", [3, 4, 7])
def test_a_cycle_of_curves_goes_through_fill_edges(capsys, tmp_path, n):
    # a cycle of -3 curves (a cusp) solves through the elimination's fill
    # edges, as the dense oracle does; a cycle of -2 curves (the affine
    # A~_{n-1} graph) is only semidefinite and is refused
    cycle = [(i, (i + 1) % n, 1) for i in range(n)]
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_dualgraph([-3] * n, cycle, [("C", "strict-transform", [1] + [0] * (n - 1))])))
    matrix = dense([-3] * n, cycle)
    assert all(d != 0 and (d < 0) == (k % 2 == 0) for k, d in enumerate(leading_minors(matrix)))
    pullback = _naive_gauss(matrix, [Fraction(-1)] + [Fraction(0)] * (n - 1))
    code, doc = run_cli(capsys, "pullback", str(path), "--d", '{"C": "1"}')
    assert (code, doc) == (0, {"pullback": {"C": "1"} | {f"E{i + 1}": str(a) for i, a in enumerate(pullback)}})
    code, doc = run_cli(capsys, "discrepancy", str(path))
    assert code == 0 and doc["discrepancies"] == {f"E{i}": "-1" for i in range(1, n + 1)}
    path.write_text(json.dumps(_dualgraph([-2] * n, cycle)))
    error = {"type": "NotNegativeDefinite", "message": "intersection matrix is not negative definite"}
    assert run_cli(capsys, "discrepancy", str(path)) == (1, {"error": error})


def _star_tree(arms: int = 9, length: int = 111) -> dict:
    """A star-shaped tree of 1 + arms * length curves: E1 (self-intersection
    -10) meets the first curve of each arm, a chain of `length` curves of
    self-intersection -2, save -3 at every 37th and at the tip; odd arms list
    their edges backwards.  Extra C meets the tip of the first arm, D meets E1."""
    selfs, edges = [-10], []
    for arm in range(arms):
        first = 1 + arm * length
        for k in range(length):
            selfs.append(-3 if k % 37 == 36 or k == length - 1 else -2)
            prev = 0 if k == 0 else first + k - 1
            edges.append((first + k, prev, 1) if arm % 2 else (prev, first + k, 1))
    n = len(selfs)
    return _dualgraph(selfs, edges, [("C", "strict-transform", [int(i == length) for i in range(n)]),
                                     ("D", "strict-transform", [int(i == 0) for i in range(n)])])


# Commands on the 1,000-curve star tree of `_star_tree`, with the sha256 of
# their stdout, as computed by dense Bareiss elimination on its 1000 x 1000
# intersection matrix (80 s and 122 s; the graph elimination takes well
# under a second).
STAR_TREE_SHA256 = {
    ("discrepancy",): "069071966ff098cd5a70540b2c8884a0ed79d4266ab8f8fc2c8c9f3dbb9429af",
    ("mult-ideal", "--z", '{"C": "3/2", "D": "1/3"}', "--lambda", "1/2"): "ac6a74f4af9fc132e3e4f9ff601438f8fd851e36494665795cf8ac9ecf036975",
}


@pytest.mark.parametrize("argv", sorted(STAR_TREE_SHA256))
def test_star_tree_outputs_are_pinned(capsys, tmp_path, argv):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(_star_tree()))
    code, out = _stdout(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STAR_TREE_SHA256[argv]


def _count_calls(monkeypatch, module, *names) -> dict[str, int]:
    """Count the calls of each module.name, reached through the module."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


# command -> (its arguments after the star tree's path, its substitutions)
STAR_TREE_SOLVES = {
    "discrepancy": ((), 1),
    "mult-ideal": (("--z", '{"C": "3/2", "D": "1/3"}', "--lambda", "1/2"), 1),
    "pullback": (("--d", '{"C": "1", "D": "2/3"}'), 1),
    "check-negativity": (("--d", '{"E1": "-1", "C": "-1"}'), 0),
}


@pytest.mark.parametrize("command", sorted(STAR_TREE_SOLVES))
def test_dual_graph_commands_eliminate_once(capsys, monkeypatch, tmp_path, command):
    # the model's definiteness check is the graph's only elimination: the
    # discrepancies, the pullback and K^num - pi*_num(lambda Z) substitute
    # into its steps
    path = tmp_path / "star.json"
    path.write_text(json.dumps(_star_tree()))
    tail, substitutions = STAR_TREE_SOLVES[command]
    calls = _count_calls(monkeypatch, linalg, "_eliminate", "substitute")
    code, _ = _stdout(capsys, command, str(path), *tail)
    assert code == 0 and calls == {"_eliminate": 1, "substitute": substitutions}


def test_a_built_model_solves_without_eliminating(monkeypatch, tmp_path):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(_star_tree()))
    model = load_model(str(path))
    calls = _count_calls(monkeypatch, linalg, "_eliminate", "substitute")
    resolution.relative_canonical(model)
    resolution.numerical_pullback(model, {"C": 1})
    assert resolution.pair_inequality_check(model, {"C": "3/2", "D": "1/3"})
    assert calls == {"_eliminate": 0, "substitute": 3}


@pytest.mark.parametrize(
    "argv",
    [
        ("m-limiting", "cyclic:1009/1008", "--z", "boundary", "--lambda", "5/4", "--m", "2"),
        ("resolve", "--r", "1009", "--a", "1008"),
        ("discrepancy", "cyclic:1009/1008"),
        ("pullback", "cyclic:1009/1008", "--d", '{"BL": "7/3", "BR": "5/2"}'),
        ("mult-ideal", "cyclic:1009/1008", "--z", "boundary", "--lambda", "5/4"),
    ],
)
def test_toric_commands_build_few_labels_per_ray(capsys, monkeypatch, argv):
    # a name search over the rays inside a loop over the rays builds about
    # n labels per ray; a model builds its labels once, so a command on the
    # fan builds at most one per ray (deterministic, unlike a time limit)
    rays = len(hj_resolve(1009, 1008).rays())
    built = []
    new = DivisorLabel.__new__

    def counted(cls, name, kind="exceptional"):
        built.append(name)
        return new(cls, name, kind)

    monkeypatch.setattr(DivisorLabel, "__new__", counted)
    code = main(list(argv))
    capsys.readouterr()
    assert code == 0
    assert len(built) <= rays + 4, len(built) / rays


@pytest.mark.parametrize("z,lam", [("-1", "1/2"), ("1", "-1/2"), ("-1", "-1/2")])
def test_unknown_label_is_reported_before_effectiveness(capsys, tmp_path, z, lam):
    # both model kinds name an unknown label of Z before they check that the pair is effective
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({"kind": "dualgraph", "curves": [{"label": "E1", "self_intersection": -2}],
                                "extras": [{"label": "C", "meets": [1]}]}))
    bad = json.dumps({"C": "1", "X": z})
    assert run_cli(capsys, "mult-ideal", str(path), "--z", bad, "--lambda", lam) == (
        1, {"error": {"type": "InvalidModel", "message": "model has no extra divisor named 'X'"}})
    assert run_cli(capsys, "mult-ideal", "cyclic:2/1", "--z", json.dumps({"BR": "1", "X": z}), "--lambda", lam) == (
        1, {"error": {"type": "InvalidModel", "message": "model has no ray named 'X'"}})


json_text = st.one_of(st.text(), st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f ae\u00e9\u2028\u20ac\U0001f600'))
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(10**80), 10**80), json_text)


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(json_text, inner, max_size=4)),
        max_leaves=20,
    )


json_docs = _json_trees(json_scalars)
SHARED = object()  # where a document of `docs_with_shared` holds its recurring list
docs_with_shared = _json_trees(st.one_of(json_scalars, st.just(SHARED)))


def _fill(doc, value):
    """`doc` with `value` in place of every SHARED."""
    if doc is SHARED:
        return value
    if isinstance(doc, list):
        return [_fill(item, value) for item in doc]
    if isinstance(doc, dict):
        return {key: _fill(item, value) for key, item in doc.items()}
    return doc


def _emitted(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(doc)
    return out.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(docs_with_shared, st.lists(json_docs, max_size=4))
def test_emit_writes_what_json_dumps_writes(doc, shared):
    # one written-once list stands wherever `doc` holds SHARED, and in a
    # document that holds it twice at one nesting and once at another
    once = _WrittenOnce(shared)
    for tree in (doc, {"a": [SHARED, SHARED], "b": SHARED, "c": doc}):
        assert _emitted(_fill(tree, once)) == json.dumps(_fill(tree, shared), sort_keys=True, indent=2) + "\n"


def _catalog_docs(monkeypatch, reports):
    """The document the `compare catalog --primes 2,3` handler builds when
    the catalog's reports are `reports`, and those reports' own documents."""
    monkeypatch.setattr(compare, "compare_catalog", lambda primes: reports)
    doc = COMMANDS["compare"][1](SimpleNamespace(model="catalog", primes="2,3", jobs=1))
    return doc, [rep.to_dict() for rep in reports]


def test_catalog_writes_each_verdict_list_once(monkeypatch):
    # reports with equal verdicts share one written-once `primes` list; on
    # the catalog every verdict is `equal`, so one list serves all 450
    real = compare.compare_catalog((2, 3))
    differing = [rep._replace(verdicts=(compare.PrimeVerdict(2, compare.TEST_LARGER, ((0, 1),)),) + rep.verdicts[1:])
                 if k % 3 == 0 else rep for k, rep in enumerate(real)]
    for reports in (real, differing):
        doc, plain = _catalog_docs(monkeypatch, reports)
        lists = [report["primes"] for report in doc["reports"]]
        assert all(isinstance(x, _WrittenOnce) for x in lists)
        assert len({id(x) for x in lists}) == len(set(rep.verdicts for rep in reports)) == (1 if reports is real else 2)
        for rep, x in zip(reports, lists):
            assert x.doc == [v.to_dict() for v in rep.verdicts]
        assert _emitted(doc) == json.dumps(dict(doc, reports=plain), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [0.5, {"a": [1, 2.0]}, [{"b": float("nan")}], {1: "a"}, (1, 2)])
def test_emit_refuses_what_is_not_exact_json(doc):
    # a float would break the exactness contract, so it fails loudly, and nothing is written
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(TypeError):
        emit(doc)
    assert out.getvalue() == ""
