"""JSON text is decoded in one place: of all the code in the package, only
the function ``errors._decoded`` calls ``json.load`` or ``json.loads``.
Every loader reads a document through ``read_json`` or a JSON-lines file
through ``json_lines``, so bad JSON is always the same located error."""

import ast
from pathlib import Path

import cnametrack

PACKAGE = Path(cnametrack.__file__).parent


def _decoders(node, where: str):
    """The innermost enclosing function (or ``<module>``) of each
    ``json.load`` or ``json.loads`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _decoders(child, child.name)
            continue
        if isinstance(child, ast.ImportFrom) and child.module == "json":
            yield f"{where}: from json import"
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("load", "loads") and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "json"):
            yield where
        yield from _decoders(child, where)


def test_only_the_one_reader_decodes_json():
    decoders = {f"{path.relative_to(PACKAGE)} {where}"
                for path in sorted(PACKAGE.rglob("*.py"))
                for where in _decoders(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>")}
    assert decoders == {"errors.py _decoded"}
