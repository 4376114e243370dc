"""Hypothesis fuzz of the command-line grammar, model files included.

Every input must end in a JSON result (exit 0), a typed JSON error named
after a `DomainError` (exit 1) or an argparse usage error (exit 2, with
nothing on stdout); no other exception may escape `cli.main`.  The
command lines also exercise the dispatch on the command name: options
are spelled as `--opt value`, `--opt=value` or by an unambiguous
abbreviation, some end in an unknown option, and some name no command,
an empty one or an unknown one.  `-h` is left out, since help exits 0
with text that is not JSON.  Well-formed lines reach long chains and
large indices (1/1009(1,1008), 1/10007(1,2)), rationals up to 1000, m up
to 50 and primes below 10^4.  A jumping-number scan builds one ideal per
candidate, lambda_max times the coefficients of Z of them, so a
well-formed scan is drawn with at most eight candidates, and a malformed
one keeps numbers below 13 on the small models its addresses name.
Nine in ten well-formed lines name a cyclic model rather than a model
file, and the test asserts a floor on the lines that exit 0.

Lines drawn the same way check `cli._read_plain`, which reads a line
spelled in full without argparse: on every line that names a command it
either declines or gives exactly the namespace of an argparse parser
built from `COMMANDS`.
"""

import argparse
import contextlib
import io
import json
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from surfideals import errors
from surfideals.cli import COMMANDS, _glue_negative_values, _read_plain, main

DOMAIN_ERRORS = {
    name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, errors.DomainError)
}

small_ints = st.integers(-3, 12)
small_rationals = st.builds(Fraction, st.integers(0, 12), st.integers(1, 12)).map(str)
nonnegative_rationals = st.builds(Fraction, st.integers(0, 1000), st.integers(1, 1000)).map(str)
rational_text = st.one_of(nonnegative_rationals, st.builds("{}/{}".format, st.integers(-3, 1000), st.integers(-2, 1000)))
small_rational_text = st.one_of(small_rationals, st.builds("{}/{}".format, small_ints, st.integers(-2, 12)))
PRIMES = [p for p in range(2, 10_000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
JUMP_CANDIDATES_PER_RAY = 4


def _is_small(text: str) -> bool:
    """Free text that parses as a rational stays below the size bound."""
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return True
    return abs(x.numerator) <= 12 and x.denominator <= 12


free_text = st.text(max_size=5).filter(_is_small)
rational_like = st.one_of(rational_text, free_text)
small_rational_like = st.one_of(small_rational_text, free_text)  # a malformed jumps scan: at most 2 * 12 * 12 candidates
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), small_ints, st.floats(-12, 12), rational_like),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)
ray_names = st.sampled_from(["BL", "BR", "E1", "E2", "C", "X"])
coeff_maps = st.dictionaries(ray_names, st.one_of(rational_text, json_values), max_size=3).map(json.dumps)
divisor_text = st.one_of(st.sampled_from(["0", "boundary"]), coeff_maps, json_values.map(json.dumps), free_text)
small_divisor_text = st.one_of(
    st.sampled_from(["0", "boundary"]), st.dictionaries(ray_names, small_rational_text, max_size=3).map(json.dumps), free_text
)
valid_primes = st.lists(st.sampled_from(PRIMES).map(str), min_size=1, max_size=3).map(",".join)
prime_lists = st.one_of(st.lists(small_ints.map(str), max_size=3).map(",".join), free_text)

curves = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"label": st.one_of(st.sampled_from(["E1", "E2", "E3"]), json_values), "self_intersection": json_values},
        optional={"genus": json_values},
    ),
)
extras = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"label": st.one_of(st.sampled_from(["C", "D"]), json_values), "meets": st.lists(json_values, max_size=3)},
        optional={"kind": st.one_of(st.sampled_from(["boundary", "exceptional"]), json_values), "pushforward": json_values},
    ),
)
model_docs = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(["cyclic", "dualgraph"]), json_values)},
    optional={
        "r": json_values,
        "a": json_values,
        "curves": st.one_of(st.lists(curves, max_size=3), json_values),
        "intersections": st.one_of(st.lists(st.lists(json_values, max_size=4), max_size=3), json_values),
        "extras": st.one_of(st.lists(extras, max_size=2), json_values),
    },
)
dualgraph_docs = st.fixed_dictionaries({
    "kind": st.just("dualgraph"),
    "curves": st.lists(
        st.fixed_dictionaries({"label": st.sampled_from(["E1", "E2", "E3"]), "self_intersection": st.integers(-4, -1),
                               "genus": st.integers(0, 1)}),
        min_size=1, max_size=3, unique_by=lambda c: c["label"]),
    "intersections": st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), max_size=2),
    "extras": st.lists(
        st.fixed_dictionaries({"label": st.sampled_from(["C", "D"]), "meets": st.lists(st.integers(0, 2), max_size=3)}),
        max_size=2),
})
model_files = st.one_of(
    st.binary(max_size=24),
    model_docs.map(lambda doc: json.dumps(doc).encode()),
    dualgraph_docs.map(lambda doc: json.dumps(doc).encode()),
)
cyclic_addresses = st.one_of(
    st.builds("cyclic:{}/{}".format, st.integers(-1, 12), st.integers(-1, 12)),
    free_text.map("cyclic:{}".format),
)
valid_addresses = st.one_of(  # half of them a long chain or a large index
    st.sampled_from(["cyclic:1/1", "cyclic:2/1", "cyclic:3/1", "cyclic:5/2", "cyclic:7/3", "cyclic:12/5"]),
    st.sampled_from(["cyclic:1009/1008", "cyclic:10007/2"]),
)
valid_divisors = st.one_of(
    st.sampled_from(["0", "boundary"]),
    st.dictionaries(st.sampled_from(["BL", "BR"]), nonnegative_rationals, max_size=2).map(json.dumps),
)


def _largest_coefficient(divisor: str) -> Fraction:
    """The largest coefficient of a divisor drawn from `valid_divisors`."""
    if divisor in ("0", "boundary"):
        return Fraction(divisor == "boundary")
    return max(map(Fraction, json.loads(divisor).values()), default=Fraction(0))


@st.composite
def few_jumps(draw, divisor: str) -> str:
    """A lambda_max with at most JUMP_CANDIDATES_PER_RAY candidates on
    each boundary ray for the well-formed Z `divisor`: a share in (0, 1]
    of JUMP_CANDIDATES_PER_RAY / (largest coefficient of Z)."""
    den, z_max = draw(st.integers(1, 1000)), _largest_coefficient(divisor)
    share = Fraction(draw(st.integers(1, den)), den)
    return str(share * (JUMP_CANDIDATES_PER_RAY / z_max if z_max else 1000))


@st.composite
def command_lines(draw):
    """One command line, with the model file it names (or None).  Half of
    them draw every field from well-formed values, so that the success
    paths are reached as well as the errors."""
    command = draw(st.sampled_from([
        "resolve", "pullback", "discrepancy", "mult-ideal", "m-limiting", "jumps",
        "test-ideal", "compare", "check-negativity", "catalog",
    ]))
    if command == "resolve":
        return [command, "--r", str(draw(st.integers(-2, 12))), "--a", str(draw(st.integers(-2, 12)))], None
    if command == "catalog":
        return [command], None
    well_formed = draw(st.booleans())
    if well_formed and draw(st.integers(0, 9)):  # nine in ten well-formed lines name a cyclic model
        file_bytes = None
    else:
        file_bytes = draw(st.one_of(st.none(), model_files))
    argv = [command, "MODEL" if file_bytes is not None else draw(valid_addresses if well_formed else cyclic_addresses)]
    divisor, rational = (valid_divisors, nonnegative_rationals) if well_formed else (divisor_text, rational_like)
    if command in ("pullback", "check-negativity"):
        argv += ["--d", draw(coeff_maps)]
    elif command == "jumps" and well_formed:
        z = draw(divisor)
        argv += ["--z", z, "--lambda-max", draw(few_jumps(z))]
    elif command == "jumps":
        argv += ["--z", draw(small_divisor_text), "--lambda-max", draw(small_rational_like)]
    elif command != "discrepancy":
        argv += ["--z", draw(divisor), "--lambda", draw(rational)]
    if command == "m-limiting":
        argv += ["--m", str(draw(st.integers(1, 50) if well_formed else st.integers(-1, 50)))]
    elif command == "test-ideal":
        argv += ["--p", str(draw(st.sampled_from(PRIMES) if well_formed else st.integers(-1, 10_000)))]
    elif command == "compare":
        argv += ["--primes", draw(valid_primes if well_formed else prime_lists)]
    return argv, file_bytes


ABBREVIATIONS = {"--lambda": "--lam", "--lambda-max": "--lambda-m", "--primes": "--pri"}


@st.composite
def argvs(draw):
    """A command line of `command_lines`, each option spelled as given, by
    an abbreviation or joined to its value by '='; some get a trailing
    unknown option, and some lose their command."""
    argv, file_bytes = draw(command_lines())
    spelled, i = argv[:1], 1
    while i < len(argv):
        if not argv[i].startswith("--"):  # the model
            spelled.append(argv[i])
            i += 1
            continue
        flag, value = argv[i], argv[i + 1]
        style = draw(st.sampled_from(["given", "abbreviated", "joined"]))
        flag = ABBREVIATIONS.get(flag, flag) if style == "abbreviated" else flag
        spelled += [f"{flag}={value}"] if style == "joined" else [flag, value]
        i += 2
    if draw(st.integers(0, 9)) == 0:
        spelled.append("--unknown-option")
    if draw(st.integers(0, 9)) == 0:
        spelled = draw(st.sampled_from([[], [""] + spelled[1:], ["nope"] + spelled[1:]]))
    return spelled, file_bytes


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# Exit-0 lines among the examples: the count is fixed by derandomize=True,
# and a floor keeps the success paths in reach when the strategies change.
MIN_SUCCESSES = 250


def test_every_command_line_gets_json_or_a_usage_error():
    codes = Counter()

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(argvs())
    def check(case):
        argv, file_bytes = case
        with tempfile.TemporaryDirectory() as tmp:
            if file_bytes is not None:
                path = Path(tmp) / "model.json"
                path.write_bytes(file_bytes)
                argv = [str(path) if arg == "MODEL" else arg for arg in argv]
            code, out = run_main(argv)
        codes[code] += 1
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert out == "", argv
            return
        doc = json.loads(out)
        if code == 1:
            assert doc["error"]["type"] in DOMAIN_ERRORS, (argv, doc)

    check()
    assert codes[0] >= MIN_SUCCESSES, codes


# Lines of `argvs()` that `_read_plain` reads rather than declines: the
# count is fixed by derandomize=True, like MIN_SUCCESSES.
MIN_READ_PLAIN = 400


def argparse_namespace(argv):
    """vars() of what argparse makes of `argv`, or None on a usage error or help."""
    name = argv[0]
    parser = argparse.ArgumentParser(prog=name)
    for flag, keywords in COMMANDS[name][2]:
        parser.add_argument(flag, **keywords)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(_glue_negative_values(name, argv[1:])))
        except SystemExit:
            return None


def test_the_plain_reader_agrees_with_argparse():
    # argparse would convert a string default through `type`; the reader does not
    assert not any("type" in kw and isinstance(kw.get("default"), str) for spec in COMMANDS.values() for _, kw in spec[2])
    outcomes = Counter()

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(argvs())
    def check(case):
        argv, _ = case
        if not argv or argv[0] not in COMMANDS:
            return
        read = _read_plain(argv[0], argv[1:])
        outcomes["read" if read is not None else "declined"] += 1
        if read is not None:
            assert vars(read) == argparse_namespace(argv), argv

    check()
    assert outcomes["read"] >= MIN_READ_PLAIN, outcomes


# Shapes the drawn lines seldom or never take; the reader must agree here too.
EDGE_LINES = [
    ["resolve", "--r", "4"],  # a required option missing
    ["discrepancy"], ["discrepancy", "cyclic:5/2", "cyclic:3/1"],  # a positional missing, one too many
    ["mult-ideal", "cyclic:5/2", "--z", "0", "--z", "boundary"],  # an option given twice
    ["mult-ideal", "--z", "boundary", "cyclic:5/2"],  # the positional after an option
    ["mult-ideal", "cyclic:5/2", "--z="], ["mult-ideal", "cyclic:5/2", "--z", ""],
    ["mult-ideal", "cyclic:5/2", "--lambda"], ["mult-ideal", "cyclic:5/2", "--", "--z", "0"],
    ["mult-ideal", "cyclic:5/2", "-h"], ["resolve", "--r", "x", "--a", "1"],
    ["compare", "catalog", "--jobs", "0"], ["compare", "catalog", "--jobs=-3"], ["compare", "catalog", "--jobs", "2"],
]


def test_the_plain_reader_agrees_with_argparse_on_edge_lines():
    for argv in EDGE_LINES:
        read = _read_plain(argv[0], argv[1:])
        assert read is None or vars(read) == argparse_namespace(argv), argv
