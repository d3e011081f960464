"""Which tracker owns an address is kept in one table, the ``IpPool``.  A
signature's declared ranges are parsed once, into
``TrackerSignature.networks``, and filed into the pool by
``IpPool.add_signatures``; every stage asks the pool.  So no module of the
package but ``model.py`` and ``dnsgraph.py`` reads ``.networks`` or
``.cidr_ranges``, and only ``dnsgraph.py`` uses ``NetworkIndex``."""

import ast
from pathlib import Path

import cnametrack

PACKAGE = Path(cnametrack.__file__).parent


def _uses():
    """(module, name) of each ``.networks``/``.cidr_ranges`` attribute and
    each ``NetworkIndex`` name or attribute in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute):
                yield module, node.attr
            elif isinstance(node, ast.Name):
                yield module, node.id
            elif isinstance(node, ast.alias):
                yield module, node.name


def test_declared_ranges_are_read_only_where_they_are_parsed_and_filed():
    readers = {module for module, name in _uses() if name in ("networks", "cidr_ranges")}
    assert readers <= {"model.py", "dnsgraph.py"}, sorted(readers)
    assert "dnsgraph.py" in readers  # the guard sees the one place that files them


def test_network_index_is_used_only_in_dnsgraph():
    users = {module for module, name in _uses() if name == "NetworkIndex"}
    assert users == {"dnsgraph.py"}, sorted(users)
