"""Defense-model tests: plain/uncloaked/sinkhole semantics, the monotonicity
guarantee, sinkhole superset for pure domain rules, and the full comparison."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from cnametrack import dnsgraph
from cnametrack.defense import (
    UncloakCache,
    compare_defenses,
    match_plain,
    match_sinkhole,
    match_uncloaked,
    pure_domain_rules,
)
from cnametrack.detect import (
    Context,
    Mechanism,
    PublisherDetection,
    TransactionRef,
    detect_publishers,
)
from cnametrack.dnsgraph import DnsRecordStore
from cnametrack.filterlist import parse_rule
from cnametrack.ingest import load_crawl_jsonl
from cnametrack.model import ContentClass, HttpTransaction, PageVisit, TrackerSignature
from cnametrack.sitectx import PublicSuffixTable, Relation

CROSS = Relation.CROSS_SITE


def rules_of(*texts):
    return [parse_rule(t) for t in texts]


def store_with(cnames=(), a_records=(), max_depth=10):
    store = DnsRecordStore(max_depth)
    for h, t in cnames:
        store.add(h, "CNAME", t)
    for h, ip in a_records:
        store.add(h, "A", ip)
    return store


class TestPlain:
    def test_block_and_exception(self):
        rules = rules_of("||tracker.net^", "@@||tracker.net^$domain=trusted.com")
        assert match_plain("https://tracker.net/x", CROSS, rules).blocked
        assert not match_plain("https://tracker.net/x", CROSS, rules,
                               page_host="trusted.com").blocked

    def test_cloaked_host_not_matched(self):
        rules = rules_of("||tracker.net^")
        assert not match_plain("https://metrics.shop.com/x", CROSS, rules).blocked


class TestUncloaked:
    def setup_method(self):
        self.rules = rules_of("||tracker.net^")
        self.dns = store_with(
            cnames=[("metrics.shop.com", "x.tracker.net")],
            a_records=[("x.tracker.net", "198.51.100.1"),
                       ("clean.shop.com", "198.51.100.2")],
        )

    def test_uncloaks_and_blocks(self):
        d = match_uncloaked("https://metrics.shop.com/x", CROSS, self.rules,
                            self.dns, UncloakCache())
        assert d.blocked

    def test_plain_block_short_circuits(self):
        d = match_uncloaked("https://tracker.net/x", CROSS, self.rules,
                            self.dns, UncloakCache())
        assert d.blocked and not d.dns_missing

    def test_clean_host_allowed(self):
        d = match_uncloaked("https://clean.shop.com/x", CROSS, self.rules,
                            self.dns, UncloakCache())
        assert not d.blocked

    def test_missing_dns_fails_open(self):
        d = match_uncloaked("https://nodata.shop.com/x", CROSS, self.rules,
                            self.dns, UncloakCache())
        assert not d.blocked and d.dns_missing

    def test_cache_is_transparent(self):
        cache = UncloakCache()
        url = "https://metrics.shop.com/x"
        first = match_uncloaked(url, CROSS, self.rules, self.dns, cache)
        assert (cache.hits, cache.misses) == (0, 1)
        second = match_uncloaked(url, CROSS, self.rules, self.dns, cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert first == second

    def test_dns_missing_on_every_lookup(self):
        cache = UncloakCache()
        decisions, counts = [], []
        for _ in range(3):
            decisions.append(match_uncloaked("https://nodata.shop.com/x", CROSS, self.rules,
                                             self.dns, cache))
            counts.append((cache.hits, cache.misses))
        assert [d.dns_missing for d in decisions] == [True, True, True]
        assert counts == [(0, 1), (1, 1), (2, 1)]

    def test_port_preserved_on_substitution(self):
        rules = rules_of("||tracker.net^")
        dns = store_with(cnames=[("m.shop.com", "x.tracker.net")],
                         a_records=[("x.tracker.net", "198.51.100.1")])
        d = match_uncloaked("https://m.shop.com:8443/x", CROSS, rules, dns,
                            UncloakCache())
        assert d.blocked

    def test_cycle_fails_open(self):
        dns = store_with(cnames=[("a.shop.com", "b.shop.com"),
                                 ("b.shop.com", "a.shop.com")])
        d = match_uncloaked("https://a.shop.com/x", CROSS, self.rules, dns,
                            UncloakCache())
        assert not d.blocked and d.dns_missing


class TestSinkhole:
    def test_hostname_hit(self):
        d = match_sinkhole("tracker.net", store_with(), ["tracker.net"])
        assert d.blocked and d.matched_domain == "tracker.net"

    def test_subdomain_hit(self):
        assert match_sinkhole("x.tracker.net", store_with(), ["tracker.net"]).blocked

    def test_hop_hit(self):
        dns = store_with(cnames=[("m.shop.com", "x.tracker.net")],
                         a_records=[("x.tracker.net", "198.51.100.1")])
        assert match_sinkhole("m.shop.com", dns, ["tracker.net"]).blocked

    def test_no_hit(self):
        assert not match_sinkhole("m.shop.com", store_with(), ["tracker.net"]).blocked


# --- randomized property tests ------------------------------------------------

_DOMAINS = ["tracker.net", "stats.example", "cdn.host", "ads.example",
            "shop.com", "media.org"]


def _random_case(rng: random.Random):
    """One randomized (rules, dns, url) scenario."""
    texts = []
    for _ in range(rng.randint(1, 5)):
        dom = rng.choice(_DOMAINS)
        form = rng.randrange(4)
        if form == 0:
            texts.append(f"||{dom}^")
        elif form == 1:
            texts.append(f"||{dom}^$third-party")
        elif form == 2:
            texts.append(f"/{rng.choice(['track', 'pixel', 'beacon'])}^")
        else:
            texts.append(f"@@||{dom}^")
    rules = [parse_rule(t) for t in texts]

    dns = DnsRecordStore()
    host_labels = ["metrics", "www", "static", "track"]
    host = f"{rng.choice(host_labels)}.{rng.choice(_DOMAINS)}"
    if rng.random() < 0.7:
        chain_len = rng.randint(1, 3)
        current = host
        for i in range(chain_len):
            nxt = f"c{i}.{rng.choice(_DOMAINS)}"
            if nxt == current:
                break
            dns.add(current, "CNAME", nxt)
            current = nxt
        dns.add(current, "A", f"198.51.100.{rng.randrange(256)}")
    elif rng.random() < 0.5:
        dns.add(host, "A", f"203.0.113.{rng.randrange(256)}")
    # else: host deliberately absent from DNS

    path = rng.choice(["/", "/track/v1", "/pixel.gif", "/assets/app.js"])
    url = f"https://{host}{path}"
    relation = rng.choice([Relation.SAME_SITE, Relation.CROSS_SITE])
    page_site = rng.choice([None, "shop.com", "news.org"])
    return rules, dns, url, host, relation, page_site


def run_monotonicity_cases(n_cases: int, seed: int = 99) -> int:
    """Check plain=>uncloaked monotonicity and sinkhole superset on random
    cases; returns the number of cases checked (raises on any violation)."""
    rng = random.Random(seed)
    for case_no in range(n_cases):
        rules, dns, url, host, relation, page_site = _random_case(rng)
        plain = match_plain(url, relation, rules, page_site)
        uncloaked = match_uncloaked(url, relation, rules, dns, UncloakCache(),
                                    page_site)
        if plain.blocked:
            assert uncloaked.blocked, (case_no, url, [r.raw for r in rules])
        domains = pure_domain_rules(rules)
        sink = match_sinkhole(host, dns, domains)
        # for pure domain rules with no exceptions the sinkhole blocks a
        # superset of what uncloaking blocks
        exception_free = [r for r in rules if not r.is_exception]
        if all(r.pure_domain for r in exception_free) and not any(
            r.is_exception for r in rules
        ):
            pure_uncloaked = match_uncloaked(url, Relation.CROSS_SITE,
                                             exception_free, dns, UncloakCache())
            if pure_uncloaked.blocked:
                assert sink.blocked, (case_no, url, domains)
    return n_cases


def test_monotonicity_randomized():
    assert run_monotonicity_cases(1500) == 1500


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_monotonicity_hypothesis(seed):
    run_monotonicity_cases(3, seed=seed)


class TestCompareDefenses:
    def test_matrix_on_planted_month(self, tmp_path, psl):
        corpora, dns_lines, _ = corpusgen.planted_world()
        month = corpusgen.MONTHS[0]
        path = corpusgen.write_jsonl(corpora[month], tmp_path / "c.jsonl")
        corpus = load_crawl_jsonl(path, psl)
        dns = DnsRecordStore()
        for line in dns_lines[month]:
            for ans in line["answers"]:
                dns.add(ans["name"], ans["type"], ans["answer"])
        sigs = [TrackerSignature("eulertrack", cname_suffixes=("eulertrack.net",),
                                 cidr_ranges=("203.0.113.0/28",),
                                 path_patterns=("/ea/*",)),
                TrackerSignature("pixelstats", cname_suffixes=("pixelstats.io",),
                                 path_patterns=("/collect*",))]
        from cnametrack.dnsgraph import IpPool

        pool = IpPool()
        pool.add_range("203.0.113.0/28", "eulertrack")
        detections = detect_publishers(corpus, dns, sigs, pool, psl)
        rules = rules_of("||eulertrack.net^", "||pixelstats.io^")
        report = compare_defenses(corpus, detections, rules, dns)
        # plain matching never sees the cloaked names
        assert report.fractions["eulertrack"]["plain"] == 0.0
        # uncloaking recovers the CNAME-routed transactions but not the
        # DirectARecord ones; sinkhole matches uncloaking here
        assert 0.0 < report.fractions["eulertrack"]["uncloaked"] < 1.0
        assert report.fractions["pixelstats"]["uncloaked"] == 1.0
        for tracker in report.fractions:
            fr = report.fractions[tracker]
            assert fr["plain"] <= fr["uncloaked"] <= fr["sinkhole"] + 1e-12
        # DirectARecord hosts have A records, so no coverage warnings
        assert report.coverage_warnings == 0

    def test_coverage_warnings_count_transactions(self, psl, caplog):
        visit = PageVisit("https://www.shop.com/", "v1", site="shop.com", transactions=[
            HttpTransaction("https://nodns.shop.com/a", remote_ip="203.0.113.3"),
            HttpTransaction("https://nodns.shop.com/b", remote_ip="203.0.113.3")])
        sig = TrackerSignature("trk", cidr_ranges=("203.0.113.0/28",), path_patterns=("/*",))
        dns = store_with(a_records=[("www.shop.com", "198.51.100.1")])
        detections = detect_publishers([visit], dns, [sig], None, psl)
        with caplog.at_level("WARNING", logger="cnametrack.defense"):
            report = compare_defenses([visit], detections, rules_of("||trk.net^"), dns)
        assert [v.dns_missing for v in report.verdicts] == [True, True]
        assert report.coverage_warnings == 2
        assert [r.getMessage() for r in caplog.records] == [
            "no DNS coverage for nodns.shop.com; uncloaked match fails open"]

    def test_each_chain_resolved_once(self, psl, monkeypatch):
        """detect_publishers and compare_defenses share the store's memo,
        which resolves at the store's depth."""
        resolved: dict[tuple, int] = {}
        resolve = dnsgraph.resolve_chain

        def counting(host, store, max_depth):
            resolved[host, max_depth] = resolved.get((host, max_depth), 0) + 1
            return resolve(host, store, max_depth)

        monkeypatch.setattr(dnsgraph, "resolve_chain", counting)
        urls = ["https://m.shop.com/p.gif", "https://m.shop.com/t.js", "https://m.shop.com:8443/p",
                "https://n.shop.com/x", "https://n.shop.com/y", "https://loop.shop.com/x",
                "https://loop.shop.com/y", "https://nodns.shop.com/x", "https://nodns.shop.com/y"]
        visit = PageVisit("https://www.shop.com/", "v1", site="shop.com", transactions=[
            HttpTransaction(url, remote_ip="203.0.113.3" if "nodns" in url else None) for url in urls])
        sig = TrackerSignature("trk", cname_suffixes=("trk.net",), cidr_ranges=("203.0.113.0/28",),
                               path_patterns=("/*",))
        for max_depth in (10, 3):
            dns = store_with(cnames=[("m.shop.com", "x.trk.net"), ("loop.shop.com", "a.loop.org"),
                                     ("a.loop.org", "loop.shop.com")],
                             a_records=[("x.trk.net", "198.51.100.1"), ("n.shop.com", "203.0.113.2")],
                             max_depth=max_depth)
            detections = detect_publishers([visit], dns, [sig], None, psl)
            report = compare_defenses([visit], detections, rules_of("||trk.net^"), dns)
            assert len(report.verdicts) == 7
        assert resolved == {(host, depth): 1 for depth in (10, 3)
                            for host in ("m.shop.com", "n.shop.com", "loop.shop.com", "nodns.shop.com")}

    def test_stale_evidence_ref_is_skipped(self):
        url = "https://metrics.shop.com/ea/collect"
        visit = PageVisit("https://www.shop.com/", "v1", site="shop.com",
                          transactions=[HttpTransaction(url)])
        det = PublisherDetection(
            "shop.com", "eulertrack", Context.SAME_SITE,
            [TransactionRef("v1", 0, url, "metrics.shop.com"),
             TransactionRef("v1", 5, url, "metrics.shop.com")],  # past the end
            Mechanism.CNAME,
        )
        dns = store_with(cnames=[("metrics.shop.com", "x.eulertrack.net")],
                         a_records=[("x.eulertrack.net", "203.0.113.1")])
        report = compare_defenses([visit], [det], rules_of("||eulertrack.net^"), dns)
        assert [(v.visit_id, v.index) for v in report.verdicts] == [("v1", 0)]
        assert report.counts == {"eulertrack": 1}


class TestOptionsInDefense:
    """``$script``/``$image`` follow each transaction's content class and
    ``domain=`` the page hostname, in every defense column; a rule with an
    unsupported option blocks nothing in any."""

    def _report(self, page_url, urls, classes, rules, dns=None):
        txns = [HttpTransaction(u, content_type_class=c) for u, c in zip(urls, classes)]
        visit = PageVisit(page_url, "v1", site="example.com" if "example.com" in page_url else "shop.com",
                          transactions=txns)
        det = PublisherDetection(
            visit.site, "trk", Context.CROSS_SITE,
            [TransactionRef("v1", i, u, txns[i].host) for i, u in enumerate(urls)],
            Mechanism.CNAME,
        )
        return compare_defenses([visit], [det], rules_of(*rules), dns or store_with())

    def test_type_option_follows_content_class(self):
        report = self._report("https://www.shop.com/",
                              ["https://tracker.net/p.gif", "https://tracker.net/t.js"],
                              [ContentClass.IMAGE, ContentClass.SCRIPT], ["||tracker.net^$script"])
        assert [v.plain for v in report.verdicts] == [False, True]
        assert [v.uncloaked for v in report.verdicts] == [False, True]

    def test_domain_option_matches_page_hostname(self):
        url = ["https://tracker.net/x"]
        cls = [ContentClass.OTHER]
        blocked = self._report("https://shop.example.com/", url, cls,
                               ["||tracker.net^$domain=shop.example.com"])
        excluded = self._report("https://shop.example.com/", url, cls,
                                ["||tracker.net^$domain=~shop.example.com"])
        assert [v.plain for v in blocked.verdicts] == [True]
        assert [v.plain for v in excluded.verdicts] == [False]

    def test_inert_rule_feeds_no_sinkhole(self):
        report = self._report("https://www.shop.com/", ["https://cdn.t.net/x"], [ContentClass.OTHER],
                              ["||t.net^$websocket"])
        assert report.fractions["trk"] == {"plain": 0.0, "uncloaked": 0.0, "sinkhole": 0.0}

    def test_uncloaked_verdict_is_per_transaction(self):
        dns = store_with(cnames=[("metrics.shop.com", "x.tracker.net")],
                         a_records=[("x.tracker.net", "198.51.100.1")])
        report = self._report("https://www.shop.com/",
                              ["https://metrics.shop.com/p.gif", "https://metrics.shop.com/t.js"],
                              [ContentClass.IMAGE, ContentClass.SCRIPT], ["||tracker.net^$script"], dns)
        assert [v.uncloaked for v in report.verdicts] == [False, True]

    def test_uncloak_cache_holds_no_verdict(self):
        dns = store_with(cnames=[("metrics.shop.com", "x.tracker.net")],
                         a_records=[("x.tracker.net", "198.51.100.1")])
        rules = rules_of("||tracker.net^$third-party")
        cache = UncloakCache()
        url = "https://metrics.shop.com/x"
        first = match_uncloaked(url, Relation.SAME_SITE, rules, dns, cache)
        second = match_uncloaked(url, CROSS, rules, dns, cache)
        assert not first.blocked and second.blocked and cache.hits == 1
