"""The CNAME chain-depth cap belongs to the DNS snapshot.  It is set once,
where a ``DnsRecordStore`` is built or loaded, and every stage reads chains
from the store at that depth.  So no function in the package takes a
``max_depth`` parameter but the store's constructor, the snapshot loader and
``resolve_chain``, the unmemoized walk behind the store's memo."""

import ast
from pathlib import Path

import cnametrack

PACKAGE = Path(cnametrack.__file__).parent
ALLOWED = {"dnsgraph.py DnsRecordStore.__init__", "dnsgraph.py resolve_chain", "ingest.py load_dns"}


def _functions(node, prefix=""):
    """(dotted name, node) of each function under ``node``: nested and
    method names are prefixed with their enclosing function or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def _parameters(fn: ast.FunctionDef):
    args = fn.args
    return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            if a is not None]


def test_only_snapshot_loading_takes_max_depth():
    takers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        takers.update(f"{path.relative_to(PACKAGE)} {name}" for name, fn in _functions(tree)
                      if "max_depth" in _parameters(fn))
    assert takers == ALLOWED, sorted(takers ^ ALLOWED)
