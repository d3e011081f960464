"""cnametrack benchmark: seeded batch workloads run through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  The workload's inputs are generated from the seed into
.perfbench_work/ (untimed).  Then, until --seconds have passed, a set-up
sample and the workload's command sequence alternate: each command runs in a
fresh ``python -m cnametrack.cli`` process with ``--threads 1``, one at a
time.  The first sequence's outputs are checked against the planted ground
truth; every later sequence must reproduce its output bytes.

--trace 0 prints the end-to-end metrics, medians over the run.  --trace 1
alternates untraced sequences with traced ones (each command run in-process
under tracer.py) and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it is a result row
with the machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CHECKS  # noqa: E402
from gen import BUILDERS, Workload  # noqa: E402

SETUP_RUNS = 5
COMMAND_TIMEOUT_S = 150
COMMANDS = ("detect", "features", "leaks", "report", "defense", "history", "validate")

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import cnametrack.cli
from cnametrack.ingest import load_signatures
from cnametrack.sitectx import PublicSuffixTable
PublicSuffixTable.bundled()
load_signatures(sys.argv[1])
if len(sys.argv) > 2:
    from cnametrack.filterlist import load_filter_list
    load_filter_list(sys.argv[2])
print(time.perf_counter() - t0)
"""


@dataclass
class Command:
    rc: int
    wall: float
    max_rss_kib: int
    cpu: float
    stderr_lines: int


@dataclass
class Sequence:
    commands: list[Command]
    bytes_written: int
    traces: list[dict] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)


class Runner:
    def __init__(self, root: Path, workload: Workload, wdir: Path):
        self.w = workload
        self.wdir = wdir
        # No PYTHONHASHSEED: each command gets its own hash seed, as it does
        # for a user, so output that depends on set order shows as a change.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONHASHSEED", None)
        self.reference: list[dict[str, str]] | None = None
        self.correct = True
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str], stdout) -> tuple[int, float, object]:
        err_path = self.wdir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.wdir, env=self.env, stdout=stdout, stderr=err)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def command(self, argv: list[str], trace_out: Path | None) -> Command:
        if trace_out is None:
            cmd = [sys.executable, "-m", "cnametrack.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_out), *argv]
        rc, wall, usage = self.spawn(cmd, subprocess.DEVNULL)
        with open(self.wdir / "stderr.txt", "rb") as fh:
            lines = fh.read().count(b"\n")
        return Command(rc, wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime, lines)

    def sequence(self, traced: bool = False) -> Sequence:
        for outs in self.w.outputs:
            for out in {o.split("/")[0] for o in outs}:
                shutil.rmtree(self.wdir / out, ignore_errors=True)
        commands, digests, traces, failed, written = [], [], [], 0, 0
        for i, (argv, outs) in enumerate(zip(self.w.commands, self.w.outputs)):
            trace_out = self.wdir / f"trace{i}.json" if traced else None
            cmd = self.command(argv, trace_out)
            commands.append(cmd)
            files = {}
            for name in outs:
                path = self.wdir / name
                if path.is_file():
                    data = path.read_bytes()
                    files[name] = hashlib.sha256(data).hexdigest()
                    written += len(data)
            digests.append(files)
            if traced and trace_out.is_file():
                with open(trace_out, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
            ok = cmd.rc == 0 and len(files) == len(outs)
            if not ok:
                self.problems.append(f"{argv[0]}: exit code {cmd.rc}, {len(files)}/{len(outs)} outputs")
            elif self.reference is not None and files != self.reference[i]:
                ok = False
                self.problems.append(f"{argv[0]}: output bytes differ from the first run")
            failed += not ok
        if self.reference is None:
            self.reference = digests
            if failed == 0:
                try:
                    problems = CHECKS[self.w.name](self.w, self.wdir)
                except Exception as exc:  # an output the check cannot even read is wrong
                    problems = [f"check failed on the outputs: {exc!r}"]
                if problems:
                    self.problems += problems
                    self.correct = False
                    failed = len(commands)
            else:
                self.correct = False
        elif not self.correct:
            failed = len(commands)  # reproducing a wrong output is still wrong
        self.attempted += len(commands)
        self.failed += failed
        return Sequence(commands, written, traces)

    def warm(self):
        """Write the bytecode cache, as any earlier run of the CLI would have."""
        rc, _wall, _usage = self.spawn([sys.executable, "-c", "import cnametrack.cli"], subprocess.DEVNULL)
        if rc != 0:
            raise RuntimeError(f"importing cnametrack.cli failed with exit code {rc}")

    def setup_time(self) -> float:
        args = [self.w.static_inputs["signatures"]]
        if "filters" in self.w.static_inputs:
            args.append(self.w.static_inputs["filters"])
        out_path = self.wdir / "setup.txt"
        with open(out_path, "wb") as out:
            rc, _wall, _usage = self.spawn([sys.executable, "-c", SETUP_SNIPPET, *args], out)
        if rc != 0:
            raise RuntimeError(f"set-up process failed with exit code {rc}")
        return float(out_path.read_text().split()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(w: Workload, seqs: list[Sequence], setup: list[float], runner: Runner) -> dict:
    wall = _median([s.wall for s in seqs])
    return {
        "wall_s": wall,
        "txn_per_s": w.transactions / wall,
        "peak_rss_mib": _median([max(c.max_rss_kib for c in s.commands) for s in seqs]) / 1024,
        "setup_s": _median(setup),
        "ok_frac": 1 - runner.failed / runner.attempted,
    }


def _layer_metrics(seq: Sequence) -> dict[str, float]:
    """Per-layer metrics from the traces of one sequence's commands."""
    dur: dict[str, float] = {}
    self_time: dict[str, float] = {}
    top_write = manifest = 0.0
    counters: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for t in seq.traces:
        spans = t["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            d = end - start
            dur[name] = dur.get(name, 0.0) + d
            self_time[name] = self_time.get(name, 0.0) + d - child[i]
            if name == "write_manifest":
                manifest += d
            elif name.startswith("write_") and (parent < 0 or not spans[parent][0].startswith("write_")):
                top_write += d
        for name, c in t["counters"].items():
            acc = counters.setdefault(name, {"calls": 0, "s": 0.0, "hits": 0, "distinct": 0})
            for k in acc:
                acc[k] += c[k]
        for name, v in t["counts"].items():
            # the filter-list sizes are per load, not per call: keep the largest
            merge = max if name.startswith("filterlist.") else (lambda a, b: a + b)
            counts[name] = merge(counts.get(name, 0), v)

    def c(name, field="calls"):
        return counters.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    crawl_s = dur.get("load_crawl_jsonl", 0.0) + dur.get("load_har", 0.0)
    return {
        "ingest.crawl_s": crawl_s,
        "ingest.dns_s": dur.get("load_dns", 0.0),
        "ingest.txn_per_s": ratio(counts.get("ingest.transactions", 0), crawl_s),
        "ingest.transactions": counts.get("ingest.transactions", 0),
        "sitectx.etld1_calls": c("PublicSuffixTable.etld_plus_one_or_none"),
        "sitectx.etld1_s": c("PublicSuffixTable.etld_plus_one_or_none", "s"),
        "sitectx.etld1_distinct_ratio": ratio(c("PublicSuffixTable.etld_plus_one_or_none", "distinct"),
                                              c("PublicSuffixTable.etld_plus_one_or_none")),
        "sitectx.origin_calls": c("Origin.from_url"),
        "sitectx.origin_s": c("Origin.from_url", "s"),
        "dnsgraph.resolve_calls": c("resolve_chain"),
        "dnsgraph.resolve_s": c("resolve_chain", "s"),
        "dnsgraph.resolve_distinct_ratio": ratio(c("resolve_chain", "distinct"), c("resolve_chain")),
        "dnsgraph.cycles": counts.get("dnsgraph.cycles", 0),
        "dnsgraph.truncated": c("resolve_chain", "hits"),
        "dnsgraph.pool_contains_calls": c("IpPool.contains"),
        "dnsgraph.pool_contains_s": c("IpPool.contains", "s"),
        "detect.detect_s": self_time.get("detect_publishers", 0.0),
        "detect.candidate_scan_s": self_time.get("candidate_scan", 0.0),
        "detect.route_calls": c("signature_match_route"),
        "detect.route_s": c("signature_match_route", "s"),
        "detect.route_hit_ratio": ratio(c("signature_match_route", "hits"), c("signature_match_route")),
        "detect.detections": counts.get("detect.detections", 0),
        "leaks.inventory_s": dur.get("build_inventory", 0.0) + dur.get("build_value_site_index", 0.0),
        "leaks.header_s": dur.get("find_header_leaks", 0.0),
        "leaks.post_s": dur.get("find_post_leaks", 0.0),
        "leaks.url_s": dur.get("find_url_leaks", 0.0),
        "leaks.transport_s": dur.get("transport_audit", 0.0),
        "leaks.candidates": counts.get("leaks.candidates", 0),
        "leaks.search_pairs": counts.get("leaks.search_pairs", 0),
        "leaks.findings": counts.get("leaks.findings", 0),
        "filterlist.load_s": dur.get("load_filter_list", 0.0),
        "filterlist.rules": counts.get("filterlist.rules", 0),
        "filterlist.inert_rules": counts.get("filterlist.inert_rules", 0),
        "filterlist.rule_match_calls": c("FilterRule.matches"),
        "filterlist.rule_match_hit_ratio": ratio(c("FilterRule.matches", "hits"), c("FilterRule.matches")),
        "defense.compare_s": self_time.get("compare_defenses", 0.0),
        "defense.match_plain_calls": c("match_plain"),
        "defense.match_plain_s": c("match_plain", "s"),
        "defense.sinkhole_s": c("match_sinkhole", "s"),
        "defense.uncloak_hit_ratio": ratio(c("UncloakCache.get", "hits"), c("UncloakCache.get")),
        "defense.evidence_txns": counts.get("defense.evidence_txns", 0),
        "history.backward_iterate_s": self_time.get("backward_iterate", 0.0),
        "history.adoption_s": dur.get("adoption_windows", 0.0),
        "history.cross_validate_s": self_time.get("cross_validate", 0.0),
        "history.pool_add_calls": c("IpPool.add_address") + c("IpPool.add_range"),
        "reports.write_s": top_write,
        "reports.manifest_s": manifest,
        "reports.cooccurrence_s": self_time.get("cooccurrence_fraction", 0.0),
        "reports.bytes_written": seq.bytes_written,
    }


def per_layer(w: Workload, traced: list[Sequence], plain: list[Sequence], names) -> dict:
    layers = [_layer_metrics(s) for s in traced]
    out = {name: _median([m[name] for m in layers]) for name in layers[0]}
    out.update({f"cli.{c}_s": 0.0 for c in COMMANDS})  # commands the workload does not run
    for i, argv in enumerate(w.commands):
        out[f"cli.{argv[0]}_s"] = _median([s.commands[i].wall for s in plain])
    out["cli.cpu_s"] = _median([sum(c.cpu for c in s.commands) for s in plain])
    out["cli.stderr_lines"] = _median([sum(c.stderr_lines for c in s.commands) for s in plain])
    out["trace.overhead_frac"] = _median([s.wall for s in traced]) / _median([s.wall for s in plain]) - 1
    return {name: out[name] for name in names}


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():  # not a work tree of its own: do not report a parent's HEAD
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine_facts(root: Path) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": git_commit(root)}


def declared_metrics(root: Path) -> dict[str, dict[str, str]]:
    """The metric names and units BENCHMARK.json declares, by section."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cnametrack" / "cli.py").is_file():
        print("error: run from the root of a cnametrack checkout (no src/cnametrack here)", file=sys.stderr)
        return 2
    declared = declared_metrics(root)
    work = root / ".perfbench_work"
    wdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        w = BUILDERS[args.workload](args.seed, wdir)
        runner = Runner(root, w, wdir)
        runner.warm()
        setup: list[float] = []
        traced: list[Sequence] = []
        plain: list[Sequence] = []
        # Set-up samples and sequences interleave, so that each median spans
        # the whole run rather than one stretch of a shared machine's speed.
        start = time.perf_counter()
        while True:
            if not args.trace:
                setup.append(runner.setup_time())
            plain.append(runner.sequence())  # the first one is checked
            if args.trace:
                traced.append(runner.sequence(traced=True))
            if time.perf_counter() - start >= args.seconds:
                break
        while not args.trace and len(setup) < SETUP_RUNS:
            setup.append(runner.setup_time())
    finally:
        shutil.rmtree(wdir, ignore_errors=True)

    if args.trace:
        units = declared["per_layer"]
        metrics = per_layer(w, traced, plain, units)
    else:
        units = declared["end_to_end"]
        metrics = end_to_end(w, plain, setup, runner)
        metrics = {name: metrics[name] for name in units}
    row = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, **machine_facts(root),
        "transactions": w.transactions, "distinct_hosts": w.distinct_hosts,
        "host_ratio": round(w.host_ratio, 4), "sequences": len(plain) + len(traced),
        "untraced_functions": sorted({m for s in traced for t in s.traces for m in t["missing"]}),
        "setup_runs_s": setup, "sequence_walls_s": [[c.wall for c in s.commands] for s in plain],
        "problems": runner.problems[:20], "metrics": metrics,
    }
    work.mkdir(exist_ok=True)
    with open(work / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    print(json.dumps(row))
    print(json.dumps({
        "correct": runner.correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
