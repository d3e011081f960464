"""Ungated scaling sweep: each layer timed alone along its ROADMAP axis.

    python3 perfbench/sweep.py [--axis signatures|rules|leaks|months|baselines ...]

Run from the root of a source checkout; cnametrack is imported from ./src
into this process and each layer's public function is timed directly, after
its inputs are loaded.  This is a diagnostic run on demand: it is not the
benchmark command in BENCHMARK.json and no bound applies to it.  All axes
together take a few minutes on a 2-core machine.

Axes:
  signatures  detect_publishers on the crawl-detect corpus, 1 -> 51 signatures
  rules       load_filter_list, and match_plain per URL, 1k -> 20k rules
  leaks       audit_leaks with 10 signatures, 1k -> 3k visits
  months      backward_iterate + adoption_windows, 6 -> 24 months
  baselines   the ROADMAP item-1 measurements, as sanity rows
Each row is printed as one JSON line with the machine facts, and appended to
.perfbench_work/sweep.jsonl.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from run import machine_facts  # noqa: E402

WORK = ROOT / ".perfbench_work" / "sweep"
URL_SAMPLE = 50


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _emit(row: dict):
    row = {**row, **machine_facts(ROOT)}
    line = json.dumps(row)
    print(line, flush=True)
    with open(ROOT / ".perfbench_work" / "sweep.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def _crawl_inputs(d: Path, knobs: gen.Knobs, seed: int = 1):
    """The crawl-detect world written to d, with signatures for all trackers."""
    from cnametrack.ingest import load_crawl_jsonl, load_dns, load_signatures
    from cnametrack.sitectx import PublicSuffixTable

    gen.build_crawl_detect(seed, d, knobs)
    psl = PublicSuffixTable.bundled()
    corpus = load_crawl_jsonl(d / "crawl.jsonl", psl)
    return psl, corpus, load_dns(d / "dns.jsonl"), load_signatures(d / "sigs.json")


def _pool(sigs):
    from cnametrack.dnsgraph import IpPool

    pool = IpPool()
    for sig in sigs:
        for cidr in sig.cidr_ranges:
            pool.add_range(cidr, sig.tracker_id)
    return pool


def axis_signatures():
    from cnametrack.detect import detect_publishers

    knobs = replace(gen.CRAWL_DETECT, signatures=51)
    psl, corpus, dns, sigs = _crawl_inputs(WORK / "signatures", knobs)
    txns = sum(len(v.transactions) for v in corpus)
    for n in (1, 11, 21, 31, 41, 51):
        s, dets = _timed(detect_publishers, corpus, dns, sigs[:n], _pool(sigs[:n]), psl)
        _emit({"axis": "signatures", "signatures": n, "transactions": txns, "detect_s": s,
               "detections": len(dets)})


def _sample_urls(world: gen.CrawlWorld, n: int) -> list[str]:
    """Third-party URLs, each matched once (the report scan's case)."""
    urls = [u for site, us in world.visits.values() for u in us if gen.site_of(gen.host_of(u)) != site]
    return random.Random(7).sample(urls, n)


def _match_per_url(rules, urls, page_site=None) -> float:
    from cnametrack.defense import match_plain
    from cnametrack.sitectx import Relation

    s, _ = _timed(lambda: [match_plain(u, Relation.CROSS_SITE, rules, page_site) for u in urls])
    return s / len(urls)


def axis_rules(counts=(1000, 2000, 5000, 10000, 20000)):
    from cnametrack.filterlist import load_filter_list

    d = WORK / "rules"
    d.mkdir(parents=True, exist_ok=True)
    rng = random.Random(1)
    knobs = gen.BLOCKLIST_EVAL
    world = gen.CrawlWorld(rng, knobs, gen.site_names(rng, knobs.sites),
                           gen.make_plan(rng, knobs.sites, knobs.signatures))
    urls = _sample_urls(world, URL_SAMPLE)
    rows = []
    for n in counts:
        gen.write_filter_list(gen.filter_list(random.Random(n), world, n), d / "filters.txt", random.Random(n))
        load_s, (rules, stats) = _timed(load_filter_list, d / "filters.txt")
        row = {"axis": "rules", "rules": stats.rules, "inert": stats.inert, "load_s": load_s,
               "match_plain_ms_per_url": 1000 * _match_per_url(rules, urls), "urls": len(urls)}
        _emit(row)
        rows.append(row)
    return rows


def _leak_audit(visits: int):
    from cnametrack.detect import detect_publishers
    from cnametrack.ingest import load_crawl_jsonl, load_dns, load_signatures
    from cnametrack.leaks import audit_leaks
    from cnametrack.sitectx import PublicSuffixTable

    d = WORK / f"leaks{visits}"
    knobs = replace(gen.LEAK_AUDIT, visits=visits, sites=visits // 3)
    gen.build_leak_audit(1, d, knobs)
    psl = PublicSuffixTable.bundled()
    corpus = load_crawl_jsonl(d / "crawl.jsonl", psl)
    dns, sigs = load_dns(d / "dns.jsonl"), load_signatures(d / "sigs.json")
    dets = detect_publishers(corpus, dns, sigs, _pool(sigs), psl)
    s, result = _timed(audit_leaks, corpus, dets, sigs, psl)
    return {"axis": "leaks", "visits": visits, "sites": knobs.sites, "signatures": len(sigs),
            "audit_leaks_s": s, "findings": len(result.findings)}


def axis_leaks():
    for visits in (1000, 2000, 3000):
        _emit(_leak_audit(visits))


def axis_months():
    from cnametrack.history import MonthDataset, adoption_windows, backward_iterate
    from cnametrack.ingest import load_crawl_jsonl, load_dns, load_signatures
    from cnametrack.sitectx import PublicSuffixTable

    psl = PublicSuffixTable.bundled()
    for n in (6, 12, 18, 24):
        d = WORK / f"months{n}"
        gen.build_history_months(1, d, replace(gen.HISTORY_MONTHS, months=n))
        manifest = json.loads((d / "months.json").read_text())  # newest first
        months = [MonthDataset(e["month"], load_crawl_jsonl(d / e["corpus"], psl), load_dns(d / e["dns"]))
                  for e in manifest]
        sigs = load_signatures(d / "sigs.json")
        s, monthly = _timed(backward_iterate, months, sigs, psl)
        a, _events = _timed(adoption_windows, monthly)
        _emit({"axis": "months", "months": n, "transactions": sum(len(v.transactions) for m in months
                                                                  for v in m.corpus),
               "backward_iterate_s": s, "adoption_windows_s": a})


def _acceptance09_corpus(d: Path):
    """The corpus of acceptance test 09: 2000 visits x 50 transactions on
    500 sites, one cloaked eulertrack request per visit."""
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "big.jsonl", "w", encoding="utf-8") as fh:
        for v in range(2000):
            site = f"big{v % 500:03d}.com"
            fh.write(json.dumps(gen.visit_record(f"b{v}", f"https://www.{site}/")) + "\n")
            for t in range(50):
                url = (f"https://metrics.{site}/ea/collect?uid={v}" if t == 0
                       else f"https://www.{site}/asset/{t}.png")
                fh.write(json.dumps(gen.txn_record(f"b{v}", url, size=250)) + "\n")
    dns = gen.Dns()
    for s in range(500):
        dns.chain(f"metrics.big{s:03d}.com", [f"c{s}.eulertrack.net"], "203.0.113.7")
    dns.write(d / "dns.jsonl")
    sigs = [{"tracker_id": "eulertrack", "cname_suffixes": ["eulertrack.net"], "cidr_ranges": [],
             "path_patterns": ["/ea/*"]}] + gen.signatures(50)
    gen.write_json(sigs, d / "sigs.json")


def axis_baselines():
    from cnametrack.detect import detect_publishers
    from cnametrack.ingest import load_crawl_jsonl, load_dns, load_signatures
    from cnametrack.sitectx import PublicSuffixTable

    d = WORK / "acceptance09"
    _acceptance09_corpus(d)
    psl = PublicSuffixTable.bundled()
    ingest_s, corpus = _timed(load_crawl_jsonl, d / "big.jsonl", psl)
    dns, sigs = load_dns(d / "dns.jsonl"), load_signatures(d / "sigs.json")
    _emit({"axis": "baselines", "what": "ingest 100k transactions", "measured_s": ingest_s,
           "roadmap_s": 1.6})
    for n, roadmap in ((1, 3.3), (51, 15.3)):
        s, _ = _timed(detect_publishers, corpus, dns, sigs[:n], None, psl)
        _emit({"axis": "baselines", "what": f"detect 100k transactions, {n} signatures",
               "measured_s": s, "roadmap_s": roadmap})
    row = axis_rules(counts=(20000,))[0]
    _emit({"axis": "baselines", "what": "match_plain per URL, 20k rules",
           "measured_ms": row["match_plain_ms_per_url"], "roadmap_ms": 21})
    leak = _leak_audit(3000)
    _emit({"axis": "baselines", "what": "audit_leaks, 3k visits, 10 signatures",
           "measured_s": leak["audit_leaks_s"], "roadmap_s": 14})


AXES = {"signatures": axis_signatures, "rules": axis_rules, "leaks": axis_leaks,
        "months": axis_months, "baselines": axis_baselines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--axis", action="append", choices=sorted(AXES),
                    help="axis to run (repeatable); default: all")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cnametrack" / "cli.py").is_file():
        print("error: run from the root of a cnametrack checkout (no src/cnametrack here)", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.axis or AXES:
            AXES[name]()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
