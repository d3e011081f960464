"""Each command loads only the stage modules it runs.  Every case starts a
fresh interpreter, runs one command on a one-request fixture and lists the
``cnametrack`` modules it loaded; importing the CLI alone loads no stage."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cnametrack
from cnametrack.cli import main
from test_cli import one_request_world

PROBE = """\
import sys
import cnametrack.cli
code = cnametrack.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(*sorted(sys.modules))
sys.exit(code)
"""

NOT_LOADED = {
    None: {"detect", "reports", "defense", "filterlist", "leaks", "history"},
    "detect": {"defense", "filterlist", "leaks", "history"},
    "features": {"defense", "filterlist", "leaks", "history"},
    "leaks": {"defense", "filterlist", "history"},
    "defense": {"leaks", "history"},
    "report": {"leaks", "history"},
    "history": {"defense", "filterlist", "leaks"},
    "validate": {"defense", "filterlist", "leaks"},
}


def loaded_modules(argv, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cnametrack.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("cnametrack.") for name in proc.stdout.split()
            if name.startswith("cnametrack.")}


@pytest.mark.parametrize("command", list(NOT_LOADED), ids=lambda c: c or "import")
def test_command_loads_only_its_stages(tmp_path, command):
    world = one_request_world(tmp_path, "https://m.shop.com/ea/x", [("m.shop.com", "CNAME", "c.trk.net")],
                              [{"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/ea/*"]}])
    out = tmp_path / "out"
    if command == "report":
        assert main([str(a) for a in ["detect", *world["detect"], "--out", out]]) == 0
        world["report"] = ["--corpus", tmp_path / "corpus.jsonl", "--filters", tmp_path / "filters.txt"]
    argv = [] if command is None else [command, *world[command], "--out", out]
    loaded = loaded_modules(argv, tmp_path)
    assert "cli" in loaded
    assert not loaded & NOT_LOADED[command]
