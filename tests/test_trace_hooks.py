"""Every function the benchmark tracer wraps must still exist in the package.

The tracer (perfbench/tracer.py) reports a renamed or deleted function only
as a metric that reads zero; this test turns that into a failure.  The
tracer's SPANS and COUNTERS tables are read from its source, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_table(name):
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


HOOKS = _tracer_table("SPANS") + _tracer_table("COUNTERS")


@pytest.mark.parametrize("module,dotted", HOOKS, ids=[f"{m}.{d}" for m, d in HOOKS])
def test_hook_resolves(module, dotted):
    obj = importlib.import_module(f"cnametrack.{module}")
    for attr in dotted.split("."):
        assert hasattr(obj, attr), f"cnametrack.{module}.{dotted} is gone"
        obj = getattr(obj, attr)
    assert callable(obj)
