"""The functions that the benchmark's tracer wraps exist in the package.

`perfbench/tracer.py` lists them in its TRACED table as (module,
attribute path) pairs and patches each one by name, with every import
alias of it.  These tests read that table, without installing the
tracer, and run the benchmark's own alias test, so that a rename or
deletion under `src/` that strands a traced name or an alias fails the
main test suite too.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_tracer_patches_every_import_alias():
    test = "perfbench/tests/test_perfbench.py::test_tracer_patches_every_import_alias"
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", test], cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
