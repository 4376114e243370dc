"""Layer tracing from outside the program.

`Tracer.install()` replaces public functions of the surfideals modules
with timing wrappers, in every module that holds a reference to them
(`from .x import f` makes an alias that must be patched too).  Each
wrapped call adds to its name's call count, inclusive time and self
time; the calls named in SPAN_NAMES also keep a raw span.  The tracer
is only ever installed in a forked child, so the parent process and the
untraced runs never see a wrapper.
"""

from __future__ import annotations

import importlib
import sys
import time
from functools import wraps

# (module, attribute path) of each traced function; the metric name is
# "<module>.<attribute path>".  `divisors` is deliberately not wrapped:
# per-call wrappers on DivisorVector arithmetic would swamp its cost,
# which shows up as the self time of its callers instead.
TRACED = (
    ("cli", "main"),
    ("cli", "emit"),
    ("compare", "compare_pair"),
    ("frobenius", "test_ideal_detailed"),
    ("frobenius", "test_ideal_of_divisor"),
    ("frobenius", "boundary_containment_check"),
    ("frobenius", "numerical_containment_check"),
    ("frobenius", "trace_maps"),
    ("frobenius", "trace_apply"),
    ("multiplier", "multiplier_ideal"),
    ("multiplier", "jumping_numbers"),
    ("toric", "hj_resolve"),
    ("toric", "section_module_min_gens"),
    ("toric", "MonomialIdeal.from_points"),
    ("toric", "MonomialIdeal.sum"),
    ("toric", "MonomialIdeal.intersect"),
    ("toric", "MonomialIdeal.issubset"),
    ("toric", "MonomialIdeal.contains_point"),
    ("resolution", "relative_canonical"),
    ("linalg", "solve"),
    ("linalg", "is_negative_definite"),
)

# The CLI, pair and prime boundaries: these calls also keep a raw span.
SPAN_NAMES = frozenset({
    "cli.main",
    "compare.compare_pair",
    "frobenius.test_ideal_detailed",
    "frobenius.boundary_containment_check",
    "frobenius.numerical_containment_check",
})

FROM_POINTS = "toric.MonomialIdeal.from_points"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "surfideals" or name.startswith("surfideals."))]


def lru_caches() -> dict:
    """Every functools cache object in the package, by defining name."""
    caches = {}
    for mod in _package_modules():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_info", None)) and getattr(obj, "__module__", "").startswith("surfideals"):
                name = obj.__module__.removeprefix("surfideals.") + "." + obj.__qualname__
                caches[name] = obj
    return caches


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, p)
        self.points_in = 0
        self.gens_out = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [child time, span id or None]
        self._caches: dict = {}

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans if name in SPAN_NAMES else None
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if spans is not None:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span_id is not None:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    p = getattr(args[1], "p", None) if len(args) > 1 else None
                    spans[span_id] = (span_id, name, start, end, parent, p)

        return traced

    def _wrap_from_points(self, fn):
        tracer = self

        def counted(cls, model, points):
            points = list(points)
            tracer.points_in += len(points)
            ideal = fn(cls, model, points)
            tracer.gens_out += len(ideal.gens)
            return ideal

        return self._wrap(FROM_POINTS, counted)

    def install(self) -> None:
        loaded = {}
        for mod_name, _ in TRACED:
            try:
                loaded[mod_name] = importlib.import_module(f"surfideals.{mod_name}")
            except ImportError:
                loaded[mod_name] = None
        self._caches = lru_caches()
        modules = _package_modules()
        for mod_name, path in TRACED:
            name = f"{mod_name}.{path}"
            mod = loaded[mod_name]
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap_from_points(fn) if name == FROM_POINTS else self._wrap(name, fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            if owner is not mod:  # a method: the class holds the only reference
                setattr(owner, attr, wrapped)
                continue
            for other in modules:  # the function and every import alias of it
                for key, value in list(vars(other).items()):
                    if value is raw:
                        setattr(other, key, wrapped)

    # -- results -----------------------------------------------------------

    def report(self) -> dict:
        """Everything a traced process sends back: per-name aggregates,
        raw spans, from_points sizes and a cache_info() snapshot."""
        caches = {}
        for name, obj in self._caches.items():
            info = obj.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
        return {
            "stats": {name: list(v) for name, v in self.stats.items()},
            "spans": [list(s) for s in self.spans if s is not None],
            "points_in": self.points_in,
            "gens_out": self.gens_out,
            "caches": caches,
            "missing": self.missing,
        }
