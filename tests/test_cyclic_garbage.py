"""A command's cyclic garbage does not grow with its input.

Objects caught in a reference cycle outlive their last use until the cycle
collector runs, so a cycle made per record holds memory that grows with the
corpus.  Each benchmark workload of ``perfbench/gen.py`` is built small, at
two sizes (the second with twice the visits and sites), and its commands are
run through ``cli.main`` in process with the collector off.  Each command
must leave as many unreachable objects at both sizes.  A warm-up run first
builds what a process builds once (imports, the bundled suffix table)."""

import gc
from dataclasses import replace

import pytest

from cnametrack import cli
from test_golden_outputs import WORKLOADS, _gen

SMALL = {
    "crawl-detect": {"visits": 20, "txns_per_visit": 10, "signatures": 5, "sites": 10},
    "leak-audit": {"visits": 20, "txns_per_visit": 6, "signatures": 3, "sites": 10},
    "blocklist-eval": {"visits": 20, "txns_per_visit": 10, "signatures": 5, "sites": 10, "filter_rules": 100},
    "history-months": {"visits": 30, "txns_per_visit": 5, "signatures": 5, "sites": 30, "months": 6},
}


def cyclic_garbage(workload: str, scale: int, wdir, monkeypatch) -> dict[str, int]:
    """The unreachable objects each command of ``workload`` leaves, by command,
    with the world's visits and sites multiplied by ``scale``."""
    knobs = _gen().Knobs(**SMALL[workload])
    w = _gen().BUILDERS[workload](1, wdir, replace(knobs, visits=knobs.visits * scale, sites=knobs.sites * scale))
    monkeypatch.chdir(wdir)
    left = {}
    for argv in w.commands:
        gc.collect()
        gc.disable()
        try:
            assert cli.main(argv) == 0
        finally:
            gc.enable()
        left[argv[0]] = gc.collect()
    return left


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cyclic_garbage_does_not_grow_with_input(workload, tmp_path, monkeypatch):
    cyclic_garbage(workload, 1, tmp_path / "warm-up", monkeypatch)
    small = cyclic_garbage(workload, 1, tmp_path / "small", monkeypatch)
    assert cyclic_garbage(workload, 2, tmp_path / "large", monkeypatch) == small
