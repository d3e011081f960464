"""The walkthroughs in demos/ run against the package as it stands.

Each demo is started as its own process, as a reader would run it, and must
exit 0; they import public names (``UncloakCache``, ``resolve_chain``,
``uncloaked_target``, ...) that no other test reaches this way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_every_demo_is_found():
    assert [d.name for d in DEMOS] == ["demo_defense.py", "demo_detect.py", "demo_history.py",
                                       "demo_leaks.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
