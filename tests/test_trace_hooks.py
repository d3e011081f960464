"""Every function the benchmark tracer wraps must still exist in the package.

The tracer (perfbench/tracer.py) reports a renamed or deleted function only
as a metric that reads zero; this test turns that into a failure.  The
tracer's SPANS and COUNTERS tables are read from its source, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from cnametrack import leaks
from cnametrack.model import TrackerSignature

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


def test_audit_leaks_calls_traced_stages(leak_setup, monkeypatch):
    """audit_leaks must reach the traced leak stages through the module
    namespace, once per tracker, or the tracer's leaks.*_s read zero.  A
    second signature of one tracker id is the same tracker: its stages are
    not entered again, and its findings are not reported twice."""
    corpus, _dns, sig, detections, _expected, psl = leak_setup
    other = TrackerSignature("quiet", cname_suffixes=("quiet.example",), path_patterns=("/*",))
    same = TrackerSignature(sig.tracker_id, cname_suffixes=("cdn.example",), path_patterns=("/*",))
    names = ("filter_candidates", "find_header_leaks", "find_post_leaks", "find_url_leaks")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _fn=getattr(leaks, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(leaks, name, counting)
    result = leaks.audit_leaks(corpus, detections, [sig, other, same], psl)
    assert len(result.findings) == 12
    assert calls == dict.fromkeys(names, 2)
