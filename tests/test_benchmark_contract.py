"""The functions that the benchmark's tracer wraps exist in the package.

`perfbench/tracer.py` lists them in its TRACED table as (module,
attribute path) pairs and patches each one by name.  This test reads
that table, without installing the tracer, so that a rename or deletion
under `src/` that strands a traced name fails the main test suite too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path in tracer.TRACED:
        obj = importlib.import_module(f"surfideals.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert tracer.TRACED and missing == []
