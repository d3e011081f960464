"""Every name cnametrack defines has a caller outside the tests: each
top-level function or class and each public method in the package is
referenced by name somewhere other than its own definition, in the package,
in ``demos/`` or in ``perfbench/``.  A name only tests reach is dead code.

Every record field has a reader the same way: each annotated field of a
dataclass or ``NamedTuple`` in the package is read as an attribute
(``x.field``) somewhere in those places outside its own class's
``__init__`` and ``__post_init__``.  A field nothing reads is carried for
nothing."""

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


def _is_record(node: ast.ClassDef) -> bool:
    """A class decorated ``@dataclass`` (called or not) or based on ``NamedTuple``."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, (ast.Name, ast.Attribute)) and \
                (target.id if isinstance(target, ast.Name) else target.attr) == "dataclass":
            return True
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)


def _fields(path: Path):
    """(class node, field name) of each annotated field of a record class."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node, item.target.id


def _attribute_loads(tree: ast.AST):
    """(attribute name, line) of each attribute read.  A string such as
    ``"method"`` is no read: a dict key of the same name would otherwise keep
    a dead field alive."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_record_field_is_read():
    loads: dict[str, list[tuple[Path, int]]] = {}
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for name, line in _attribute_loads(tree):
                loads.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for cls, name in _fields(path):
            constructors = [range(f.lineno, f.end_lineno + 1) for f in cls.body
                            if isinstance(f, ast.FunctionDef)
                            and f.name in ("__init__", "__post_init__")]
            if not any(p != path or not any(line in r for r in constructors)
                       for p, line in loads.get(name, ())):
                dead.append(f"{path.relative_to(PACKAGE)} {cls.name}.{name}")
    assert not dead, dead
