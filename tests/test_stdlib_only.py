"""cnametrack is stdlib-only: every module it imports is in the standard
library or is cnametrack itself."""

import ast
import sys
from pathlib import Path

import cnametrack

PACKAGE = Path(cnametrack.__file__).parent


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    foreign = {
        (str(path.relative_to(PACKAGE)), name)
        for path in sources
        for name in _imported_modules(path)
        if name != "cnametrack" and name not in sys.stdlib_module_names
    }
    assert not foreign, sorted(foreign)
