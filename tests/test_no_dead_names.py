"""Every name cnametrack defines has a caller outside the tests: each
top-level function or class and each public method in the package is
referenced by name somewhere other than its own definition, in the package,
in ``demos/`` or in ``perfbench/``.  A name only tests reach is dead code."""

import ast
import re
from pathlib import Path

import cnametrack

PACKAGE = Path(cnametrack.__file__).parent
ROOT = PACKAGE.parent.parent
USERS = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]
ALLOWED = {("cli.py", "main")}  # the console entry point
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _definitions(path: Path):
    """(name, first line, last line) of each top-level function or class
    and each public method of a top-level class."""
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree: ast.AST):
    """(name, line) of each use of a name: a variable, an attribute, an
    imported name, or a string that is a dotted name (as in
    ``getattr(obj, "name")`` or a table of hook targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def test_every_definition_has_a_caller():
    refs: dict[str, list[tuple[Path, int]]] = {}
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for name, line in _references(tree):
                refs.setdefault(name, []).append((path, line))
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    dead = sorted(
        f"{path.relative_to(PACKAGE)}:{first} {name}"
        for path in sources
        for name, first, last in _definitions(path)
        if (str(path.relative_to(PACKAGE)), name) not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
        and not any(p != path or not first <= line <= last for p, line in refs.get(name, ()))
    )
    assert not dead, dead
