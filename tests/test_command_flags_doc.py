"""docs/formats.md shows the command table the CLI parses with, as declared.

The table marked ``<!-- flags: cli.COMMANDS -->`` has one row per command
of ``cli.COMMANDS``, in order, giving its required flags (in the order they
are checked) and the other flags it takes, then one row of the flags every
command takes (``cli.SHARED``).  A flag added to a command but not to the
docs, or the other way round, fails."""

import re
from pathlib import Path

from cnametrack import cli

DOC = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
MARKER = re.compile(r"<!-- flags: cli\.COMMANDS -->\n((?:\|.*\n)+)")


def _flags(entries) -> str:
    """``"corpus|har"`` is shown as "`--corpus` or `--har`"."""
    return ", ".join(" or ".join(f"`--{flag}`" for flag in entry.split("|")) for entry in entries) or "none"


def _rows() -> list[list[str]]:
    rows = [["command", "required", "also takes"]]
    rows += [[f"`{name}`", _flags(command.required), _flags(command.takes)]
             for name, command in cli.COMMANDS.items()]
    return [*rows, ["every command", "none", _flags(cli.SHARED)]]


def test_command_table_is_documented_as_declared():
    tables = MARKER.findall(DOC.read_text(encoding="utf-8"))
    assert len(tables) == 1
    lines = [[cell.strip() for cell in line.strip().strip("|").split(" | ")] for line in tables[0].splitlines()]
    assert [lines[0], *lines[2:]] == _rows()  # without the |---| rule
