"""Detection tests: signature routing, candidate discovery, feature oracle,
heuristics, and planted precision/recall on a single month."""

import pytest

import corpusgen
from naivefeat import naive_features
from cnametrack.detect import (
    Context,
    Flag,
    Mechanism,
    candidate_scan,
    detect_publishers,
    extract_features,
    heuristic_flag,
)
from cnametrack.dnsgraph import DnsRecordStore, IpPool
from cnametrack.ingest import load_crawl_jsonl, load_dns, load_signatures
from cnametrack.model import HttpTransaction, PageVisit, TrackerSignature


def build_store(dns_lines):
    store = DnsRecordStore()
    for line in dns_lines:
        for ans in line["answers"]:
            store.add(ans["name"], ans["type"], ans["answer"], line.get("month"))
    return store


@pytest.fixture(scope="module")
def signatures(tmp_path_factory):
    path = corpusgen.write_signatures(tmp_path_factory.mktemp("sigs") / "sigs.json")
    return load_signatures(path)


@pytest.fixture(scope="module")
def month0(tmp_path_factory, signatures):
    corpora, dns_lines, truth = corpusgen.planted_world()
    month = corpusgen.MONTHS[0]
    path = corpusgen.write_jsonl(corpora[month],
                                 tmp_path_factory.mktemp("m0") / "corpus.jsonl")
    from cnametrack.sitectx import PublicSuffixTable

    corpus = load_crawl_jsonl(path, PublicSuffixTable.bundled())
    return corpus, build_store(dns_lines[month]), truth


class TestSignatureRouting:
    """The route a transaction takes, as the mechanism ``detect_publishers``
    reports on a world of one visit with one request."""

    SIG = TrackerSignature("trk", cname_suffixes=("trk.net",),
                           cidr_ranges=("203.0.113.0/28",),
                           path_patterns=("/ea/*",))
    OTHER = TrackerSignature("other", cname_suffixes=("other.net",), path_patterns=("/ea/*",))

    def _mechanisms(self, psl, url, cnames=(), a_records=(), remote_ip=None, pool=None):
        """tracker id -> mechanism of the detections of ``SIG`` and ``OTHER``."""
        store = DnsRecordStore()
        for h, t in cnames:
            store.add(h, "CNAME", t)
        for h, ip in a_records:
            store.add(h, "A", ip)
        visit = PageVisit("https://www.shop.com/", "v0")
        visit.transactions.append(HttpTransaction(url, remote_ip=remote_ip))
        detections = detect_publishers([visit], store, [self.SIG, self.OTHER], pool, psl)
        return {d.tracker_id: d.cloaking_mechanism for d in detections}

    def test_cname_route(self, psl):
        got = self._mechanisms(psl, "https://m.shop.com/ea/collect",
                               [("m.shop.com", "x.trk.net")], [("x.trk.net", "198.51.100.1")])
        assert got == {"trk": Mechanism.CNAME}

    def test_path_pattern_gates(self, psl):
        got = self._mechanisms(psl, "https://m.shop.com/other/path",
                               [("m.shop.com", "x.trk.net")], [("x.trk.net", "198.51.100.1")])
        assert got == {}

    def test_direct_a_record_via_cidr(self, psl):
        got = self._mechanisms(psl, "https://m.shop.com/ea/collect",
                               a_records=[("m.shop.com", "203.0.113.4")])
        assert got == {"trk": Mechanism.DIRECT_A_RECORD}

    def test_direct_a_record_via_remote_ip(self, psl):
        got = self._mechanisms(psl, "https://m.shop.com/ea/collect", remote_ip="203.0.113.4")
        assert got == {"trk": Mechanism.DIRECT_A_RECORD}

    def test_direct_a_record_via_pool(self, psl):
        pool = IpPool()
        pool.add_address("198.18.0.9", "trk")
        got = self._mechanisms(psl, "https://m.shop.com/ea/collect", remote_ip="198.18.0.9", pool=pool)
        # the pool entry is per-tracker: the other signature does not match
        assert got == {"trk": Mechanism.DIRECT_A_RECORD}
        assert self._mechanisms(psl, "https://m.shop.com/ea/collect", remote_ip="198.18.0.9") == {}

    def test_cname_route_wins_over_ip(self, psl):
        got = self._mechanisms(psl, "https://m.shop.com/ea/collect",
                               [("m.shop.com", "x.trk.net")], [("x.trk.net", "203.0.113.4")],
                               remote_ip="203.0.113.4")
        assert got == {"trk": Mechanism.CNAME}


class TestPlantedDetection:
    def test_precision_recall_one(self, month0, signatures, psl):
        corpus, dns, truth = month0
        detections = detect_publishers(corpus, dns, signatures, None, psl)
        got = {(d.publisher_etld1, d.tracker_id, d.context.value) for d in detections}
        assert got == truth  # precision == recall == 1.0

    def test_mechanism_labels(self, month0, signatures, psl):
        corpus, dns, truth = month0
        detections = detect_publishers(corpus, dns, signatures, None, psl)
        by_pub = {d.publisher_etld1: d for d in detections
                  if d.context is Context.SAME_SITE}
        for i in range(corpusgen.N_DIRECT_A):
            assert by_pub[f"site{i:02d}.com"].cloaking_mechanism is Mechanism.DIRECT_A_RECORD
        assert by_pub["site05.com"].cloaking_mechanism is Mechanism.CNAME

    def test_deterministic_order(self, month0, signatures, psl):
        corpus, dns, _ = month0
        detections = detect_publishers(corpus, dns, signatures, None, psl)
        keys = [d.sort_key() for d in detections]
        assert keys == sorted(keys)


class TestCandidatesAndFeatures:
    def test_candidate_scan_finds_cdn_and_trackers(self, month0, psl):
        corpus, dns, _ = month0
        candidates = candidate_scan(corpus, dns, psl, min_sites=1)
        targets = {c.target_etld1 for c in candidates}
        assert "fastcdn.net" in targets
        assert "eulertrack.net" in targets
        # DirectARecord sites have no CNAME, so they are not candidates
        fast = next(c for c in candidates if c.target_etld1 == "fastcdn.net")
        assert fast.site_count == corpusgen.N_CDN

    def test_min_sites_filter(self, month0, psl):
        corpus, dns, _ = month0
        assert candidate_scan(corpus, dns, psl, min_sites=100) == []

    def test_features_match_naive_recompute(self, month0, psl):
        corpus, dns, _ = month0
        for agg in candidate_scan(corpus, dns, psl, min_sites=1):
            fv = extract_features(agg)
            naive = naive_features(corpus, dns, psl, agg.target_etld1)
            assert naive is not None
            assert (fv.sites, fv.hostnames, fv.mean_unique_paths_per_site,
                    fv.mean_requests_per_site, fv.pct_responses_setting_cookie,
                    fv.pct_requests_sending_cookie, fv.bucket_count) == naive

    def test_heuristic_direction(self, month0, psl):
        corpus, dns, _ = month0
        flags = {c.target_etld1: heuristic_flag(extract_features(c))
                 for c in candidate_scan(corpus, dns, psl, min_sites=1)}
        assert flags["eulertrack.net"] is Flag.LIKELY_TRACKER
        assert flags["fastcdn.net"] is not Flag.LIKELY_TRACKER

    def test_heuristic_conflict_is_inconclusive(self):
        from cnametrack.detect import FeatureVector

        fv = FeatureVector(sites=5, hostnames=5, mean_unique_paths_per_site=9.0,
                           mean_requests_per_site=2.0,
                           pct_responses_setting_cookie=80.0,
                           pct_requests_sending_cookie=10.0,
                           bucket_count=2)
        assert heuristic_flag(fv) is Flag.INCONCLUSIVE
