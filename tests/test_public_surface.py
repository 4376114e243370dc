"""Every name `surfideals` exports, and every function, method and class
that `src/` defines, has a use beyond its own tests; every parameter is
read in its function's body.

A use is a read of the name, bare or as an attribute, in `src/` (a
definition and the imports of `__init__` read nothing), in a demo or in
`tests/test_acceptance.py`, or a part of a layer name in
`perfbench/tracer.py:TRACED`, which patches functions by name.  An export
with none of these is code that only its own tests call: it goes, or
moves to `tests/conftest.py` as an oracle.
"""

import ast
import inspect
from pathlib import Path

import surfideals

ROOT = Path(__file__).resolve().parent.parent


def _read_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _traced_names() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return {part for _, path in ast.literal_eval(traced) for part in path.split(".")}


def test_every_export_has_a_use():
    sources = [path for path in (ROOT / "src" / "surfideals").glob("*.py") if path.name != "__init__.py"]
    sources += list((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    used = _traced_names().union(*map(_read_names, sources))
    exported = {name for name in surfideals.__all__ if not inspect.ismodule(getattr(surfideals, name))}
    assert sorted(exported - used) == []


# NamedTuple's own protocol: a subclass overrides these, and Python and the
# standard library (copy, pickle, `_replace` itself) call them
NAMEDTUPLE_PROTOCOL = frozenset({"_make", "_replace", "_asdict"})


def _is_namedtuple(node: ast.ClassDef) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "NamedTuple" or isinstance(n, ast.Attribute) and n.attr == "NamedTuple"
               for base in node.bases for n in ast.walk(base))


def _unread(sources: dict[str, str], used: set[str]) -> tuple[list[str], list[str]]:
    """The definitions in `sources` (module stem -> source) whose name is not
    in `used`, and the parameters their function's body never reads."""
    unread, unused_params = [], []
    for stem, text in sources.items():
        tree = ast.parse(text)
        protocol = {id(fn) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and _is_namedtuple(node)
                    for fn in node.body if isinstance(fn, ast.FunctionDef) and fn.name in NAMEDTUPLE_PROTOCOL}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            where = f"{stem}.{node.name}"
            called_by_python = node.name.startswith("__") and node.name.endswith("__") or id(node) in protocol
            if not called_by_python and node.name not in used:
                unread.append(where)
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
            body = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unused_params += [f"{where}({name})" for name in params
                              if name not in ("self", "cls") and not name.startswith("_") and name not in body]
    return unread, unused_params


def test_every_definition_and_parameter_has_a_reader():
    # dunders and NamedTuple protocol overrides are called by Python; self,
    # cls and _-names need no reader
    sources = [path for path in (ROOT / "src" / "surfideals").glob("*.py") if path.name != "__init__.py"]
    readers = sources + list((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    used = _traced_names().union(*map(_read_names, readers))
    assert _unread({path.stem: path.read_text(encoding="utf-8") for path in sources}, used) == ([], [])


SYNTHETIC = """
class Pair(NamedTuple("Pair", [("a", int)])):
    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def _replace(self, **changes):
        return changes

    def _asdict(self):
        return {}


class Tagged(typing.NamedTuple):
    def _replace(self, **changes):
        return changes


class Plain:
    def _replace(self, **changes):
        return changes
"""


def test_namedtuple_protocol_overrides_count_as_read():
    # only a NamedTuple subclass's `_make`, `_replace` and `_asdict` are
    # Python's to call; the same name elsewhere still needs a reader
    assert _unread({"synthetic": SYNTHETIC}, {"Pair", "Tagged", "Plain"}) == (["synthetic._replace"], [])
