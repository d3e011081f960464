"""Acceptance suite: ten product-level criteria, each with its stated
tolerance and time bound.  Every test emits one PASS line on success (visible
with ``pytest -s`` / in captured output)."""

import json
import random
import resource
import statistics
import time

import pytest

import corpusgen
from chainref import enumerate_graphs, random_graph, reference_walk, store_from_graph
from naivefeat import naive_features
from test_sitectx import check_public_suffix, load_vectors

from cnametrack.cli import main as cli_main
from cnametrack.defense import UncloakCache, match_plain, match_uncloaked
from cnametrack.detect import candidate_scan, detect_publishers, extract_features
from cnametrack.dnsgraph import DnsRecordStore, IpPool, resolve_chain
from cnametrack.errors import CnameCycle
from cnametrack.filterlist import parse_rule
from cnametrack.history import (
    MonthDataset,
    backward_iterate,
    cross_validate,
    external_trackers,
    host_paths,
)
from cnametrack.ingest import load_crawl_jsonl
from cnametrack.leaks import audit_leaks
from cnametrack.model import TrackerSignature
from cnametrack.sitectx import PublicSuffixTable, Relation

from test_defense import run_monotonicity_cases
from test_history import build_store


def report(criterion, name, started):
    elapsed = time.perf_counter() - started
    print(f"[ACCEPTANCE {criterion}] {name}: PASS ({elapsed:.2f}s)")


def test_01_public_suffix_conformance():
    """100% of the reference vectors (minus the IDN exclusion) in < 1 s."""
    started = time.perf_counter()
    psl = PublicSuffixTable.bundled()
    cases = load_vectors()
    assert len(cases) >= 60
    failures = [(h, e, check_public_suffix(psl, h))
                for h, e in cases if check_public_suffix(psl, h) != e]
    assert failures == []
    assert time.perf_counter() - started < 1.0
    report(1, "public-suffix conformance", started)


def test_02_chain_resolution_totality():
    """Exhaustive over all CNAME digraphs on <= 5 nodes plus 10,000 random
    graphs, correct chain/cycle/truncation verdicts, in < 10 s."""
    started = time.perf_counter()

    def check(nodes, graph, start):
        expected = reference_walk(start, graph, 10)
        store = store_from_graph(graph)
        try:
            chain = resolve_chain(start, store, 10)
            got = ("chain", list(chain.hops), list(chain.terminal_ips),
                   chain.truncated)
        except CnameCycle:
            got = ("cycle",)
        assert got[0] == expected[0], (graph, start)
        if expected[0] == "chain":
            assert got[1:] == tuple(expected[1:]), (graph, start)

    count = 0
    for n in range(1, 6):
        for nodes, graph in enumerate_graphs(n):
            for start in nodes:
                check(nodes, graph, start)
                count += 1
    assert count > 38000  # the full <=5-node space

    rng = random.Random(123456)
    for _ in range(10000):
        nodes, graph = random_graph(rng)
        check(nodes, graph, rng.choice(nodes))

    assert time.perf_counter() - started < 10.0
    report(2, "chain-resolution totality", started)


def test_03_planted_detection(tmp_path):
    """3-month 60-site corpus: 12 planted publishers (2 DirectARecord, 1 IP
    churn), 5 cross-site inclusions, 10 CDN decoys -> precision = recall = 1.0
    per month, in < 30 s."""
    started = time.perf_counter()
    psl = PublicSuffixTable.bundled()
    corpora, dns_lines, truth = corpusgen.planted_world()
    months = []
    for month in corpusgen.MONTHS:
        path = corpusgen.write_jsonl(corpora[month], tmp_path / f"{month}.jsonl")
        months.append(MonthDataset(month, load_crawl_jsonl(path, psl),
                                   build_store(dns_lines[month])))
    sigs = [
        TrackerSignature("eulertrack", cname_suffixes=("eulertrack.net",),
                         cidr_ranges=("203.0.113.0/28",), path_patterns=("/ea/*",)),
        TrackerSignature("pixelstats", cname_suffixes=("pixelstats.io",),
                         path_patterns=("/collect*",)),
    ]
    monthly = backward_iterate(months, sigs, psl)
    for m in monthly:
        got = {(p, t, c.value) for p, t, c in m.publishers}
        missing = truth - got
        extra = got - truth
        assert not missing and not extra, (m.month, missing, extra)
    assert time.perf_counter() - started < 30.0
    report(3, "planted detection precision/recall = 1.0", started)


def test_04_leak_fixture_exactness(tmp_path):
    """6 CookieHeader + 3 PostBody + 3 UrlParam planted leaks and 8 decoys ->
    exactly 12 findings with correct channels, zero decoys, in < 10 s."""
    started = time.perf_counter()
    psl = PublicSuffixTable.bundled()
    records, dns_lines, expected = corpusgen.leak_world()
    path = corpusgen.write_jsonl(records, tmp_path / "leaks.jsonl")
    corpus = load_crawl_jsonl(path, psl)
    dns = build_store(dns_lines)
    sig = TrackerSignature("eulertrack", cname_suffixes=("eulertrack.net",),
                           path_patterns=("/ea/*",))
    detections = detect_publishers(corpus, dns, [sig], None, psl)
    result = audit_leaks(corpus, detections, [sig], psl)
    got = {(f.site, f.cookie.name, f.channel.value) for f in result.findings}
    want = {(site, name, channel)
            for channel, pairs in expected.items() for site, name in pairs}
    assert got == want and len(result.findings) == 12
    assert time.perf_counter() - started < 10.0
    report(4, "leak fixture exactness (12 findings)", started)


def test_05_defense_monotonicity():
    """plain=Blocked => uncloaked=Blocked over >= 1,000 randomized cases with
    zero counterexamples; sinkhole superset for pure domain rules; < 20 s."""
    started = time.perf_counter()
    checked = run_monotonicity_cases(1200, seed=20260824)
    assert checked >= 1000
    assert time.perf_counter() - started < 20.0
    report(5, f"defense monotonicity over {checked} cases", started)


def test_06_mechanism_split_fixture():
    """A tracker reachable only through its CNAME chain is blocked only after
    uncloaking (plain x, uncloaked ok); a URL-pattern-matched tracker is
    blocked plain -- the two defense columns differ by mechanism."""
    started = time.perf_counter()
    dns = DnsRecordStore()
    dns.add("metrics.shop.com", "CNAME", "x.cloaktrk.net")
    dns.add("x.cloaktrk.net", "A", "198.51.100.1")
    dns.add("pixel.shop.com", "A", "198.51.100.2")
    rules = [parse_rule("||cloaktrk.net^"), parse_rule("/pixel/track^")]

    cloaked_url = "https://metrics.shop.com/v1/collect"
    plain = match_plain(cloaked_url, Relation.SAME_SITE, rules)
    uncloaked = match_uncloaked(cloaked_url, Relation.SAME_SITE, rules, dns,
                                UncloakCache())
    assert not plain.blocked and uncloaked.blocked

    url_pattern_url = "https://pixel.shop.com/pixel/track?u=1"
    plain2 = match_plain(url_pattern_url, Relation.SAME_SITE, rules)
    assert plain2.blocked
    report(6, "mechanism split (plain x / uncloaked ok vs plain ok)", started)


def test_07_feature_direction(tmp_path):
    """20 tracker-like vs 20 CDN-like services: median size-bucket count and
    median unique-paths/site strictly lower for trackers; every feature equals
    an independent naive recompute byte-for-byte."""
    started = time.perf_counter()
    psl = PublicSuffixTable.bundled()
    records, dns_lines, tracker_targets, cdn_targets = \
        corpusgen.feature_direction_world()
    path = corpusgen.write_jsonl(records, tmp_path / "feat.jsonl")
    corpus = load_crawl_jsonl(path, psl)
    dns = build_store(dns_lines)
    candidates = {c.target_etld1: c for c in
                  candidate_scan(corpus, dns, psl, min_sites=1)}
    assert set(tracker_targets) <= set(candidates)
    assert set(cdn_targets) <= set(candidates)

    feats = {}
    for target, agg in candidates.items():
        fv = extract_features(agg)
        naive = naive_features(corpus, dns, psl, target)
        assert (fv.sites, fv.hostnames, fv.mean_unique_paths_per_site,
                fv.mean_requests_per_site, fv.pct_responses_setting_cookie,
                fv.pct_requests_sending_cookie, fv.bucket_count) == naive
        feats[target] = fv

    med = statistics.median
    trk_buckets = med(feats[t].bucket_count for t in tracker_targets)
    cdn_buckets = med(feats[t].bucket_count for t in cdn_targets)
    trk_paths = med(feats[t].mean_unique_paths_per_site for t in tracker_targets)
    cdn_paths = med(feats[t].mean_unique_paths_per_site for t in cdn_targets)
    assert trk_buckets < cdn_buckets
    assert trk_paths < cdn_paths
    report(7, "feature direction + naive recompute identity", started)


def test_08_validation_partition(tmp_path):
    """The three cross-validation mismatch archetypes (timing gap, typo
    domain, stale CNAME target) land in their designated buckets."""
    started = time.perf_counter()
    psl = PublicSuffixTable.bundled()
    sig = TrackerSignature("omniture", cname_suffixes=("2o7.net",),
                           path_patterns=("/b/ss/*",))
    records = []
    internal = DnsRecordStore()
    for i, name in enumerate(("alpha", "beta", "gamma")):
        host = f"m.{name}.com"
        records.append(corpusgen.visit_record(f"v{i}", f"https://www.{name}.com/"))
        records.append(corpusgen.txn_record(f"v{i}", f"https://{host}/b/ss/v1"))
        internal.add(host, "CNAME", f"x{i}.2o7.net")
        internal.add(f"x{i}.2o7.net", "A", f"198.51.100.{i}")
    path = corpusgen.write_jsonl(records, tmp_path / "c.jsonl")
    ds = MonthDataset("2020-10", load_crawl_jsonl(path, psl), internal)
    pool = IpPool()
    monthly = backward_iterate([ds], [sig], psl, pool=pool)

    ext10 = DnsRecordStore()
    # beta: typo archetype, ".207.net" instead of ".2o7.net"
    ext10.add("m.beta.com", "CNAME", "y.207.net")
    ext10.add("y.207.net", "A", "192.0.2.77")
    # gamma: stale CNAME parked on a CDN name still on a tracker address
    ext10.add("m.gamma.com", "CNAME", "old.cdn-park.com")
    ext10.add("old.cdn-park.com", "A", "198.51.100.2")
    # alpha: the tracker chain appears externally only a month later
    ext11 = DnsRecordStore()
    ext11.add("m.alpha.com", "CNAME", "x0.2o7.net")
    ext11.add("x0.2o7.net", "A", "198.51.100.0")

    external = {"2020-10": ext10, "2020-11": ext11}
    trackers = external_trackers(external, [sig])
    rep = cross_validate(monthly, external, trackers,
                         {"2020-10": host_paths(ds.corpus, trackers["2020-10"])}, [sig], pool)
    reasons = {e["host"]: e["reason"] for e in rep.correctness}
    assert reasons == {"m.alpha.com": "timing-gap",
                       "m.beta.com": "typo-domain",
                       "m.gamma.com": "stale-cname"}
    report(8, "validation partition (3 archetypes)", started)


def _write_big_corpus(path, n_visits=2000, txns_per_visit=50):
    """100,000 synthetic transactions across cloaked and first-party hosts."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in range(n_visits):
            site = f"big{v % 500:03d}.com"
            fh.write(json.dumps(corpusgen.visit_record(
                f"b{v}", f"https://www.{site}/")) + "\n")
            for t in range(txns_per_visit):
                if t == 0:
                    url = f"https://metrics.{site}/ea/collect?uid={v}"
                else:
                    url = f"https://www.{site}/asset/{t}.png"
                fh.write(json.dumps(corpusgen.txn_record(f"b{v}", url)) + "\n")


def test_09_throughput(tmp_path):
    """Ingest + detect over 100,000 transactions in < 60 s, peak RSS < 2 GiB."""
    psl = PublicSuffixTable.bundled()
    corpus_path = tmp_path / "big.jsonl"
    _write_big_corpus(corpus_path)
    dns = DnsRecordStore()
    for s in range(500):
        site = f"big{s:03d}.com"
        dns.add(f"metrics.{site}", "CNAME", f"c{s}.eulertrack.net")
        dns.add(f"c{s}.eulertrack.net", "A", "203.0.113.7")
    sig = TrackerSignature("eulertrack", cname_suffixes=("eulertrack.net",),
                           path_patterns=("/ea/*",))

    started = time.perf_counter()
    corpus = load_crawl_jsonl(corpus_path, psl)
    assert sum(len(v.transactions) for v in corpus) == 100_000
    detections = detect_publishers(corpus, dns, [sig], None, psl)
    elapsed = time.perf_counter() - started
    assert len(detections) == 500
    assert elapsed < 60.0, f"ingest+detect took {elapsed:.1f}s"
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
    assert peak_gib < 2.0, f"peak RSS {peak_gib:.2f} GiB"
    report(9, f"throughput 100k transactions ({elapsed:.1f}s, "
              f"{peak_gib:.2f} GiB peak)", started)


def test_10_thread_determinism(tmp_path):
    """detect with --threads 1 and --threads 8 produces byte-identical
    report files."""
    started = time.perf_counter()
    corpora, dns_lines, _ = corpusgen.planted_world()
    month = corpusgen.MONTHS[0]
    cpath = corpusgen.write_jsonl(corpora[month], tmp_path / "c.jsonl")
    dpath = corpusgen.write_jsonl(dns_lines[month], tmp_path / "d.jsonl")
    spath = corpusgen.write_signatures(tmp_path / "s.json")
    outs = []
    for threads in (1, 8):
        out = tmp_path / f"out{threads}"
        rc = cli_main(["detect", "--corpus", str(cpath), "--dns", str(dpath),
                       "--signatures", str(spath), "--threads", str(threads),
                       "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for name in ("publishers.json", "summary.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    report(10, "thread-count determinism (byte-identical)", started)
