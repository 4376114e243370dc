"""Command-line front end with deterministic JSON output.

Every subcommand writes a single JSON document to stdout (keys sorted,
rationals as exact "num/den" strings, ideals as sorted generator
exponent lists) and exits 0.  Domain errors produce a machine-readable
error object and exit code 1; usage errors exit 2 without printing any
partial result.  Models are addressed as ``cyclic:R/A``, as a path to a
JSON model file, or (for ``compare``) the literal ``catalog``.

Each command's arguments are specs in `COMMANDS`.  A line that names a
command and spells every option in full, at most once, as ``--flag
value`` (a value not starting with '-') or ``--flag=value``, is read
straight from those specs (`_read_plain`); argparse is imported and
built only for every other line, so it alone prints help, usage and
usage errors.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Union

from . import compare as compare_mod
from . import frobenius, multiplier, resolution, toric
from .divisors import DivisorLabel, DivisorVector, rat
from .errors import BadParameters, DisconnectedDualGraph, DomainError, InvalidModel, ModelFileError
from .frobenius import CharPContext
from .multiplier import PairSpec

if TYPE_CHECKING:
    import argparse


# -- serialization ----------------------------------------------------------


def divisor_doc(d: DivisorVector) -> dict:
    return {label.name: str(c) for label, c in d.items()}


def ideal_doc(ideal: toric.MonomialIdeal) -> dict:
    return {"generators": [list(g) for g in ideal.gens], "is_unit": ideal.is_unit()}


class _WrittenOnce:
    """A JSON document that recurs in one output: `_write_json` writes it
    as it writes `doc`, renders it once per nesting and reuses the text."""

    __slots__ = ("doc", "texts")

    def __init__(self, doc):
        self.doc = doc
        self.texts: dict[str, str] = {}


def _write_json(value, indent: str, out: list[str]) -> None:
    """Append to `out` the text of `value` exactly as
    json.dumps(value, sort_keys=True, indent=2) writes it at the nesting
    `indent`.  Only str-keyed dicts, lists, str, int, bool and None are
    JSON here, and a `_WrittenOnce` is written as its document: anything
    else, a float included, raises TypeError.  The `_WrittenOnce` test
    comes last, so no other value pays for it."""
    if value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, _WrittenOnce):
        text = value.texts.get(indent)
        if text is None:
            parts: list[str] = []
            _write_json(value.doc, indent, parts)
            text = value.texts[indent] = "".join(parts)
        out.append(text)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit(doc: dict) -> None:
    """Write `doc` as json.dumps(doc, sort_keys=True, indent=2) does, and a
    newline.  The stdlib's C encoder ignores `indent`, so that call runs
    the pure-Python encoder; `_write_json` does the same in one pass."""
    out: list[str] = []
    _write_json(doc, "", out)
    out.append("\n")
    sys.stdout.write("".join(out))


# -- model loading ----------------------------------------------------------


def _parse_rat(value, where: str, error: type[DomainError] = BadParameters) -> Fraction:
    """Every user-given rational goes through here: a malformed one is a
    domain error naming where it came from, never a traceback."""
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise error(f"{where}: bad rational {value!r} ({exc})") from None


def _int(value, where: str) -> int:
    """An integer of a model file; a malformed one is a ModelFileError.
    JSON true, false and non-integral numbers are not integers, though int() takes them."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise TypeError
        return int(value)
    except (TypeError, ValueError):
        raise ModelFileError(f"{where} must be an integer, got {value!r}") from None


def _model_from_dict(doc: dict, where: str) -> Union[toric.ToricSurfaceModel, resolution.ResolutionModel]:
    kind = doc.get("kind")
    if kind == "cyclic":
        for field in ("r", "a"):
            if type(doc.get(field)) is not int:
                raise ModelFileError(f"{where}: field {field!r} must be an integer")
        return toric.hj_resolve(doc["r"], doc["a"])
    if kind == "dualgraph":
        curves = doc.get("curves")
        if not isinstance(curves, list) or not curves:
            raise ModelFileError(f"{where}: field 'curves' must be a nonempty list")
        curve_objs = []
        for i, c in enumerate(curves):
            if not isinstance(c, dict) or "label" not in c or "self_intersection" not in c:
                raise ModelFileError(f"{where}: curves[{i}] needs 'label' and 'self_intersection'")
            label = DivisorLabel(str(c["label"]), "exceptional")
            self_int = _int(c["self_intersection"], f"{where}: curves[{i}].self_intersection")
            curve_objs.append(resolution.ExceptionalCurve(label, self_int, _int(c.get("genus", 0), f"{where}: curves[{i}].genus")))
        for field in ("intersections", "extras"):
            if not isinstance(doc.get(field, []), list):
                raise ModelFileError(f"{where}: field {field!r} must be a list")
        n = len(curve_objs)
        edges = []
        listed: dict[tuple[int, int], int] = {}  # each unordered pair {i, j} once
        for k, triple in enumerate(doc.get("intersections", [])):
            if not isinstance(triple, list) or len(triple) != 3:
                raise ModelFileError(f"{where}: intersections[{k}] must be [i, j, value]")
            i, j, v = (_int(x, f"{where}: intersections[{k}][{m}]") for m, x in enumerate(triple))
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ModelFileError(f"{where}: intersections[{k}] has bad curve indices")
            first = listed.setdefault((min(i, j), max(i, j)), k)
            if first != k:
                raise ModelFileError(f"{where}: intersections[{k}] lists the curves {i} and {j} again (first in intersections[{first}])")
            edges.append((i, j, v))
        extras = []
        for k, x in enumerate(doc.get("extras", [])):
            if not isinstance(x, dict) or "label" not in x or not isinstance(x.get("meets"), list):
                raise ModelFileError(f"{where}: extras[{k}] needs 'label' and a 'meets' list")
            try:
                label = DivisorLabel(str(x["label"]), x.get("kind", "strict-transform"))
            except ValueError as exc:
                raise ModelFileError(f"{where}: extras[{k}]: {exc}") from None
            if _parse_rat(x.get("pushforward", 1), f"{where}: extras[{k}].pushforward", ModelFileError) != 1:
                raise ModelFileError(f"{where}: extras[{k}].pushforward must be 1 (a prime divisor maps onto its image)")
            extras.append(resolution.Extra(label, tuple(_int(m, f"{where}: extras[{k}].meets") for m in x["meets"])))
        try:
            return resolution.ResolutionModel(tuple(curve_objs), tuple(edges), tuple(extras))
        except DisconnectedDualGraph as exc:
            raise ModelFileError(f"{where}: {exc}") from None
    raise ModelFileError(f"{where}: 'kind' must be 'cyclic' or 'dualgraph', got {kind!r}")


def load_model(address: str) -> Union[toric.ToricSurfaceModel, resolution.ResolutionModel]:
    if address.startswith("cyclic:"):
        body = address[len("cyclic:"):]
        try:
            r_str, a_str = body.split("/")
            return toric.hj_resolve(int(r_str), int(a_str))
        except ValueError:
            raise BadParameters(f"bad cyclic address {address!r}; expected cyclic:R/A") from None
    try:
        with open(address, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {address!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{address}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{address}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except RecursionError:
        raise ModelFileError(f"{address}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelFileError(f"{address}: top-level value must be an object")
    return _model_from_dict(doc, address)


def require_toric(model) -> toric.ToricSurfaceModel:
    if not isinstance(model, toric.ToricSurfaceModel):
        raise BadParameters("this subcommand needs a cyclic (toric) model")
    return model


def parse_boundary_divisor(model: toric.ToricSurfaceModel, text: str) -> DivisorVector:
    """Accepts '0', 'boundary', or a JSON object {ray-name: rational-string}."""
    if text == "0":
        return DivisorVector.zero()
    if text == "boundary":
        return model.boundary_divisor()
    return model.divisor(parse_coeff_map(text))


def parse_coeff_map(text: str) -> dict[str, Fraction]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParameters(f"bad divisor {text!r}: {exc.msg}") from None
    except RecursionError:
        raise BadParameters("bad divisor: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise BadParameters("divisor must be a JSON object of coefficients")
    return {str(k): _parse_rat(v, f"coefficient of {k}") for k, v in doc.items()}


def parse_primes(text: str) -> tuple[int, ...]:
    try:
        primes = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError:
        raise BadParameters(f"bad prime list {text!r}") from None
    for p in primes:
        if not frobenius.is_prime(p):
            raise BadParameters(f"{p} is not prime")
    if not primes:
        raise BadParameters("empty prime list")
    return primes


# -- subcommand handlers ----------------------------------------------------


def _model_doc(model: toric.ToricSurfaceModel) -> dict:
    return {
        "r": model.r,
        "a": model.a,
        "rays": {label.name: list(vec) for label, vec in model.rays()},
        "hj_coefficients": list(model.hj),
    }


def _discrepancy_doc(model) -> dict:
    if isinstance(model, toric.ToricSurfaceModel):
        rc, labels = multiplier.numerical_relative_canonical(model), model.exceptional_labels
    else:
        rc, labels = resolution.relative_canonical(model), model.labels
    coeffs = dict(rc.items())
    return {
        "relative_canonical": divisor_doc(rc),
        "discrepancies": {label.name: str(coeffs.get(label, Fraction(0))) for label in labels},
    }


def cmd_resolve(args) -> dict:
    model = toric.hj_resolve(args.r, args.a)
    return {
        "model": _model_doc(model),
        "chain": [-b for b in model.hj],
        "discrepancies": _discrepancy_doc(model)["discrepancies"],
        "cartier_index": toric.cartier_index(model),
        "class_group_order": model.r,
    }


def cmd_pullback(args) -> dict:
    model = load_model(args.model)
    coeffs = parse_coeff_map(args.d)
    if isinstance(model, resolution.ResolutionModel):
        return {"pullback": divisor_doc(resolution.numerical_pullback(model, coeffs))}
    for name in coeffs:
        if name not in (toric.LEFT, toric.RIGHT):
            raise InvalidModel(f"model has no extra divisor named {name!r}")
    return {"pullback": divisor_doc(toric.pullback_divisor(model, model.divisor(coeffs)))}


def cmd_discrepancy(args) -> dict:
    return _discrepancy_doc(load_model(args.model))


def _pair_from_args(args, model) -> PairSpec:
    model = require_toric(model)
    z = parse_boundary_divisor(model, args.z)
    return PairSpec(model, z, _parse_rat(args.lam, "--lambda"))


def cmd_mult_ideal(args) -> dict:
    model = load_model(args.model)
    if isinstance(model, resolution.ResolutionModel):
        coeffs = parse_coeff_map(args.z) if args.z not in ("0",) else {}
        d = multiplier.numerical_multiplier_divisor(model, coeffs, _parse_rat(args.lam, "--lambda"))
        return {"divisor": divisor_doc(d)}
    return {"ideal": ideal_doc(multiplier.multiplier_ideal(_pair_from_args(args, model)))}


def cmd_m_limiting(args) -> dict:
    ideal, km = multiplier._m_limiting(_pair_from_args(args, load_model(args.model)), args.m)
    return {"ideal": ideal_doc(ideal), "m": args.m, "relative_canonical_m": divisor_doc(km)}


def cmd_jumps(args) -> dict:
    model = require_toric(load_model(args.model))
    z = parse_boundary_divisor(model, args.z)
    pair = PairSpec(model, z, Fraction(1))
    jumps = multiplier.jumping_numbers(pair, _parse_rat(args.lam_max, "--lambda-max"))
    return {"jumps": [{"lambda": str(t), **ideal_doc(ideal)} for t, ideal in jumps]}


def cmd_test_ideal(args) -> dict:
    ctx = CharPContext(*parse_primes(str(args.p)))  # the prime first, as `compare` checks --primes first
    ideal = frobenius.test_ideal(_pair_from_args(args, load_model(args.model)), ctx)
    return {"ideal": ideal_doc(ideal), "p": args.p}


def cmd_compare(args) -> dict:
    sweep = compare_mod.PrimeSweep(parse_primes(args.primes))
    if args.model == "catalog":
        reports = compare_mod.compare_catalog(sweep)
        # reports with equal verdicts, or equal multiplier ideals, share one list, written once
        verdict_docs, gens_docs, docs = {}, {}, []
        for rep in reports:
            primes_doc = verdict_docs.get(rep.verdicts)
            if primes_doc is None:
                primes_doc = verdict_docs[rep.verdicts] = _WrittenOnce([v.to_dict() for v in rep.verdicts])
            gens_doc = gens_docs.get(rep.multiplier_gens)
            if gens_doc is None:
                gens_doc = gens_docs[rep.multiplier_gens] = _WrittenOnce([list(g) for g in rep.multiplier_gens])
            docs.append(rep.to_dict(primes_doc, gens_doc))
        return {
            "catalog_size": len(reports),
            "primes": list(sweep.primes),
            "reports": docs,
            "all_equal": all(v.verdict == compare_mod.EQUAL for verdicts in verdict_docs for v in verdicts),
        }
    report = compare_mod.compare_pair(_pair_from_args(args, load_model(args.model)), primes=sweep)
    return {"report": report.to_dict(), "all_equal": report.all_equal()}


def cmd_check_negativity(args) -> dict:
    model = load_model(args.model)
    coeffs = parse_coeff_map(args.d)
    if isinstance(model, toric.ToricSurfaceModel):
        by_name = {label.name: label for label, _ in model.rays()}
    else:
        by_name = {label.name: label for label in model.labels + tuple(x.label for x in model.extras)}
    try:
        d = DivisorVector([(by_name[name], c) for name, c in coeffs.items()])
    except KeyError as exc:
        raise BadParameters(f"unknown divisor label {exc.args[0]!r}") from None
    hypotheses, nonpositive = resolution.negativity_lemma(model, d)
    return {"hypotheses_hold": hypotheses, "nonpositive": nonpositive, "verdict": nonpositive or not hypotheses}


def cmd_catalog(_args) -> dict:
    entries = compare_mod.catalog_entries()
    return {
        "pairs": [
            {"id": e.entry_id, "r": e.r, "a": e.a, "z": e.z_kind, "lambda": str(e.lam)}
            for e in entries
        ],
        "primes": list(compare_mod.PRIMES_DEFAULT),
    }


# -- parser -----------------------------------------------------------------


def _jobs(text: str) -> int:
    """A --jobs value: an integer of at least 1, which selects nothing; anything else is a usage error."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = None
    if jobs is not None and jobs >= 1:
        return jobs
    import argparse  # only a usage error needs it

    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}" if jobs is None else f"must be at least 1, got {jobs}")


MODEL = ("model", {"help": "cyclic:R/A or a JSON model file"})
PAIR = (MODEL, ("--z", {"default": "0", "help": "'0', 'boundary', or JSON ray map"}),
        ("--lambda", {"dest": "lam", "default": "1", "help": "rational scaling of Z"}))

# name -> (help, handler, arguments); an argument is (name or flag, add_argument keywords).
# `_read_plain` reads the keywords help, type, default, required and dest, as argparse
# would for a positional or a one-value option whose default is not converted by its type.
COMMANDS = {
    "resolve": ("Hirzebruch-Jung resolution of 1/r(1,a)", cmd_resolve,
                (("--r", {"type": int, "required": True}), ("--a", {"type": int, "required": True}))),
    "pullback": ("numerical pullback of a divisor given through extras", cmd_pullback,
                 (MODEL, ("--d", {"required": True, "help": "JSON map extra-label -> rational"}))),
    "discrepancy": ("numerical relative canonical divisor", cmd_discrepancy, (MODEL,)),
    "mult-ideal": ("numerical multiplier ideal", cmd_mult_ideal, PAIR),
    "m-limiting": ("m-limiting multiplier ideal", cmd_m_limiting, PAIR + (("--m", {"type": int, "required": True}),)),
    "jumps": ("jumping numbers of the multiplier ideal in (0, lambda-max]", cmd_jumps,
              (MODEL, ("--z", {"default": "boundary"}), ("--lambda-max", {"dest": "lam_max", "default": "2"}))),
    "test-ideal": ("Frobenius test ideal in characteristic p", cmd_test_ideal,
                   PAIR + (("--p", {"type": int, "required": True}),)),
    "compare": ("multiplier vs test ideal over a prime sweep", cmd_compare, (
        ("model", {"help": "cyclic:R/A, a JSON model file, or 'catalog'"}),
        ("--z", {"default": "0"}),
        ("--lambda", {"dest": "lam", "default": "1"}),
        ("--primes", {"default": ",".join(str(p) for p in compare_mod.PRIMES_DEFAULT)}),
        ("--jobs", {"type": _jobs, "default": 1}),
    )),
    "check-negativity": ("surface negativity-lemma check for a divisor", cmd_check_negativity,
                         (MODEL, ("--d", {"required": True, "help": "JSON map label -> rational"}))),
    "catalog": ("list the acceptance catalog of pairs", cmd_catalog, ()),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flag, keywords in COMMANDS[name][2]:
        parser.add_argument(flag, **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for top-level usage and help; `main`
    builds it only when argv names no command.  A line that names one is
    read by `_read_plain`, or by that command's own parser when it is not
    spelled plainly."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="surfideals",
        description="Exact multiplier and test ideals on cyclic quotient surface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _glue_negative_values(name: str, argv: list[str]) -> list[str]:
    """`--lambda -1/2` as `--lambda=-1/2`: argparse reads a token that starts
    with '-' as an option unless it is a decimal number like -1 or -.5."""
    flags = [flag for flag, _ in COMMANDS[name][2] if flag.startswith("--")]
    glued: list[str] = []
    for tok in argv:
        if tok[:1] == "-" and tok[1:2].isdigit() and glued and len(glued[-1]) > 2 and any(f.startswith(glued[-1]) for f in flags):
            glued[-1] += "=" + tok
        else:
            glued.append(tok)
    return glued


def _read_plain(name: str, argv: list[str]) -> Optional[SimpleNamespace]:
    """The arguments of command `name` read straight from its specs in
    COMMANDS, when `argv` is spelled plainly: the positionals in order, and
    each option spelled in full, at most once, as `--flag value` (a value
    not starting with '-') or `--flag=value`, its value taken by the spec's
    `type`, every required option present.  The result holds what
    argparse's namespace would.  Any other line, help included, gives None."""
    specs = dict(COMMANDS[name][2])
    positionals = [flag for flag in specs if flag[:1] != "-"]
    values, given = {}, {}
    tokens = iter(argv)
    for tok in tokens:
        if tok[:1] != "-":
            if len(values) == len(positionals):
                return None
            values[positionals[len(values)]] = tok
            continue
        flag, eq, value = tok.partition("=")
        if flag not in specs or flag in given:
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or value[:1] == "-":
                return None
        given[flag] = value
    if len(values) < len(positionals):
        return None
    for flag, keywords in specs.items():
        if flag in positionals:
            continue
        dest = keywords.get("dest") or flag[2:].replace("-", "_")
        if flag not in given:
            if keywords.get("required"):
                return None
            values[dest] = keywords.get("default")
        elif "type" in keywords:
            try:
                values[dest] = keywords["type"](given[flag])
            except Exception:  # argparse runs the type again and reports or raises it
                return None
        else:
            values[dest] = given[flag]
    return SimpleNamespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line.  A line that names a command and is spelled
    plainly (`_read_plain`) is read without argparse; argparse reads every
    other line, and it alone prints help, usage and usage errors (exit 2)."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in COMMANDS:
        build_parser().parse_args(argv)  # usage, help or a usage error: it exits
    name = argv[0]
    args = _read_plain(name, argv[1:])
    if args is None:
        import argparse

        parser = _add_arguments(argparse.ArgumentParser(prog="surfideals " + name), name)
        args = parser.parse_args(_glue_negative_values(name, argv[1:]))
    try:
        doc = COMMANDS[name][1](args)
    except DomainError as exc:
        emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1
    emit(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
