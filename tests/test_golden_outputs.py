"""Golden outputs: every benchmark workload's output files, byte for byte.

For each workload of ``perfbench/gen.py`` at seeds 5 and 31337, the inputs
are generated into a fresh directory and the workload's commands are run
through ``cli.main`` inside it, as ``perfbench/run.py`` runs them, so every
path (and ``manifest.json``'s ``input_paths``) is relative and stable.  The
exit code of each command and the sha256 of each output file must equal
``golden/outputs.json``.  One workload is run again in two interpreters with
different ``PYTHONHASHSEED`` values, to catch output that follows set order.

A change that alters an output on purpose replaces the digest file with the
table this test prints on a mismatch, and names each changed file in
CHANGES.md.  Run as a script (``python tests/test_golden_outputs.py
WORKLOAD SEED DIR``, with ``src`` on ``PYTHONPATH``) it prints one table.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cnametrack import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.json"
SEEDS = (5, 31337)
WORKLOADS = ("crawl-detect", "leak-audit", "blocklist-eval", "history-months")
HASHSEED_WORKLOAD = "blocklist-eval"


def _gen():
    """perfbench/gen.py, loaded under its own name: it imports neither the
    package nor the tests."""
    gen = sys.modules.get("perfbench_gen")
    if gen is None:
        spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    return gen


def digests(workload: str, seed: int, wdir: Path) -> dict[str, object]:
    """Each command's exit code and each output file's sha256, by name."""
    w = _gen().BUILDERS[workload](seed, wdir)
    old = os.getcwd()
    os.chdir(wdir)
    try:
        table: dict[str, object] = {}
        for argv, outs in zip(w.commands, w.outputs):
            table[f"{argv[0]} exit"] = cli.main(argv)
            for rel in outs:
                table[rel] = hashlib.sha256(Path(rel).read_bytes()).hexdigest()
    finally:
        os.chdir(old)
    return table


def _mismatch(key: str, got: dict) -> str:
    return f"outputs changed; the new table for {key}:\n" + json.dumps({key: got}, indent=1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_golden(workload, seed, tmp_path):
    key = f"{workload}@{seed}"
    got = digests(workload, seed, tmp_path)
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))[key], _mismatch(key, got)


def test_outputs_do_not_follow_hash_seed(tmp_path):
    key = f"{HASHSEED_WORKLOAD}@{SEEDS[0]}"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    tables = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, __file__, HASHSEED_WORKLOAD, str(SEEDS[0]), str(tmp_path / hash_seed)],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, check=True)
        tables.append(json.loads(proc.stdout))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[key]
    assert tables[0] == tables[1] == golden, _mismatch(key, tables[0])


if __name__ == "__main__":
    print(json.dumps(digests(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))
