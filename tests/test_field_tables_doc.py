"""docs/formats.md shows every field table the loaders apply, as declared.

Each table in the package (a module-level tuple of ``field_table`` rows in
``ingest``, ``cli`` or ``reports``) has one table in the docs, marked
``<!-- fields: module.NAME -->``, whose rows give the same field, type,
default and kept flag, in the same order.  A table without a marker, or a
marker without a table, fails too."""

import importlib
import json
import re
from pathlib import Path

from cnametrack.errors import Default

DOC = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
MODULES = ("ingest", "cli", "reports")
MARKER = re.compile(r"<!-- fields: (\w+)\.(\w+) -->\n((?:\|.*\n)+)")


def _declared() -> dict[str, tuple]:
    tables = {}
    for name in MODULES:
        module = importlib.import_module(f"cnametrack.{name}")
        for attr, value in vars(module).items():
            if attr.isupper() and isinstance(value, tuple) and value and \
                    all(isinstance(row, tuple) and len(row) == 7 for row in value):
                tables[f"{name}.{attr}"] = value
    return tables


def _rows(table) -> list[list[str]]:
    rows = [["field", "type", "default", "kept"]]
    for _key, _types, _check, default, kept, label, what in table:
        shown = str(default) if isinstance(default, Default) else f"`{json.dumps(default)}`"
        rows.append([f"`{label}`", what, shown, "yes" if kept else "no"])
    return rows


def _documented() -> dict[str, list[list[str]]]:
    tables = {}
    for module, attr, text in MARKER.findall(DOC.read_text(encoding="utf-8")):
        lines = [[cell.strip() for cell in line.strip().strip("|").split(" | ")] for line in text.splitlines()]
        tables[f"{module}.{attr}"] = [lines[0], *lines[2:]]  # without the |---| rule
    return tables


def test_every_field_table_is_documented_as_declared():
    declared, documented = _declared(), _documented()
    assert len(declared) >= 19
    assert sorted(documented) == sorted(declared)
    for name, table in declared.items():
        assert documented[name] == _rows(table), name
