"""Historical-reconstruction tests: backward iteration with the IP pool,
cross-validation archetypes, and adoption-window analytics."""

import logging
import random

import pytest

import corpusgen
from cnametrack.detect import Context, Mechanism, PublisherDetection
from cnametrack.dnsgraph import DnsRecordStore, IpPool
from cnametrack.errors import NonContiguousMonths
from cnametrack.history import (
    MonthDataset,
    MonthlyDetection,
    adoption_windows,
    backward_iterate,
    cross_validate,
    third_party_trend,
)
from cnametrack.ingest import load_crawl_jsonl
from cnametrack.model import HttpTransaction, PageVisit, TrackerSignature
from cnametrack.sitectx import PublicSuffixTable


def build_store(dns_lines):
    store = DnsRecordStore()
    for line in dns_lines:
        for ans in line["answers"]:
            store.add(ans["name"], ans["type"], ans["answer"], line.get("month"))
    return store


def planted_months(tmp_path, psl):
    corpora, dns_lines, truth = corpusgen.planted_world()
    months = []
    for month in corpusgen.MONTHS:
        path = corpusgen.write_jsonl(corpora[month], tmp_path / f"{month}.jsonl")
        months.append(MonthDataset(
            month=month,
            corpus=load_crawl_jsonl(path, psl),
            dns=build_store(dns_lines[month]),
        ))
    sigs = [
        TrackerSignature("eulertrack", cname_suffixes=("eulertrack.net",),
                         cidr_ranges=("203.0.113.0/28",), path_patterns=("/ea/*",)),
        TrackerSignature("pixelstats", cname_suffixes=("pixelstats.io",),
                         path_patterns=("/collect*",)),
    ]
    return months, sigs, truth


class TestBackwardIterate:
    def test_planted_recall_per_month(self, tmp_path, psl):
        months, sigs, truth = planted_months(tmp_path, psl)
        monthly = backward_iterate(months, sigs, psl)
        assert [m.month for m in monthly] == corpusgen.MONTHS
        for m in monthly:
            got = {(p, t, c.value) for p, t, c in m.publishers}
            assert got == truth, m.month  # precision == recall == 1.0

    def test_churn_site_uses_pool_in_older_months(self, tmp_path, psl):
        months, sigs, truth = planted_months(tmp_path, psl)
        monthly = backward_iterate(months, sigs, psl)
        churn_pub = f"site{corpusgen.CHURN_SITE:02d}.com"
        old = monthly[1]  # 2020-09: CNAME gone, only the learned IP remains
        det = next(d for d in old.detections
                   if d.publisher_etld1 == churn_pub and d.context is Context.SAME_SITE)
        assert det.cloaking_mechanism is Mechanism.DIRECT_A_RECORD

    def test_pool_only_grows(self, tmp_path, psl):
        months, sigs, _ = planted_months(tmp_path, psl)
        monthly = backward_iterate(months, sigs, psl)
        def total(snapshot):
            return sum(v["singles"] + v["ranges"] for v in snapshot.values())
        sizes = [total(m.pool_snapshot) for m in monthly]
        assert sizes == sorted(sizes)

    def test_non_contiguous_months_rejected(self, psl):
        months = [MonthDataset("2020-10", [], DnsRecordStore()),
                  MonthDataset("2020-08", [], DnsRecordStore())]
        with pytest.raises(NonContiguousMonths):
            backward_iterate(months, [], psl)

    def test_year_boundary_is_contiguous(self, psl):
        months = [MonthDataset("2021-01", [], DnsRecordStore()),
                  MonthDataset("2020-12", [], DnsRecordStore())]
        assert backward_iterate(
            months,
            [TrackerSignature("t", cname_suffixes=("t.net",), path_patterns=("/x",))],
            psl,
        )[0].detections == []

    def test_cycle_warned_once_per_run(self, psl, caplog):
        def month(name):
            store = DnsRecordStore()
            for a, b in (("loop.shop.com", "a.loop.net"), ("a.loop.net", "loop.shop.com"),
                         ("spin.shop.com", "b.loop.net"), ("b.loop.net", "spin.shop.com")):
                store.add(a, "CNAME", b)
            visit = PageVisit("https://www.shop.com/", f"v-{name}", transactions=[
                HttpTransaction("https://loop.shop.com/x"), HttpTransaction("https://spin.shop.com/x"),
                HttpTransaction("https://loop.shop.com/y")])
            return MonthDataset(name, [visit], store)

        sigs = [TrackerSignature("t", cname_suffixes=("loop.net",), path_patterns=("/*",))]
        with caplog.at_level(logging.WARNING, logger="cnametrack.detect"):
            backward_iterate([month("2020-03"), month("2020-02"), month("2020-01")], sigs, psl)
        cycles = [r.getMessage() for r in caplog.records if "CNAME cycle" in r.getMessage()]
        assert len(cycles) == 2
        assert "loop.shop.com" in cycles[0] and "spin.shop.com" in cycles[1]


class TestCrossValidate:
    SIG = TrackerSignature("omniture", cname_suffixes=("2o7.net",),
                           path_patterns=("/b/ss/*/collect",))

    def _setup(self, tmp_path, psl):
        records = []
        internal = DnsRecordStore()
        sites = ["alpha", "beta", "gamma", "eps"]
        for i, name in enumerate(sites):
            host = f"m.{name}.com"
            vid = f"h{i}"
            records.append(corpusgen.visit_record(vid, f"https://www.{name}.com/"))
            records.append(corpusgen.txn_record(
                vid, f"https://{host}/b/ss/v1/collect"))
            internal.add(host, "CNAME", f"x{i}.2o7.net")
            internal.add(f"x{i}.2o7.net", "A", f"198.51.100.{i}")
        # hosts for the completeness buckets
        records.append(corpusgen.visit_record("h9", "https://www.zeta.com/"))
        records.append(corpusgen.txn_record("h9", "https://m.zeta.com/img/logo.png"))
        records.append(corpusgen.visit_record("h10", "https://www.theta.com/"))
        records.append(corpusgen.txn_record("h10", "https://m.theta.com/b/ss/v1/other"))
        records.append(corpusgen.visit_record("h11", "https://www.iota.com/"))
        records.append(corpusgen.txn_record("h11", "https://m.iota.com/b/ss/v1/collect"))
        path = corpusgen.write_jsonl(records, tmp_path / "c.jsonl")
        corpus = load_crawl_jsonl(path, psl)
        ds = MonthDataset("2020-10", corpus, internal)
        monthly = backward_iterate([ds], [self.SIG], psl)

        ext10 = DnsRecordStore()
        # beta: typo archetype -- external chain hits 207.net, not 2o7.net
        ext10.add("m.beta.com", "CNAME", "y.207.net")
        ext10.add("y.207.net", "A", "192.0.2.77")
        # gamma: stale CNAME -- external chain parks on a CDN name whose
        # address is still in the tracker's accumulated pool
        ext10.add("m.gamma.com", "CNAME", "old.cdn-park.com")
        ext10.add("old.cdn-park.com", "A", "198.51.100.2")
        # completeness hosts carry tracker chains externally
        for name in ("delta", "zeta", "theta", "iota"):
            ext10.add(f"m.{name}.com", "CNAME", "z.2o7.net")
        ext10.add("z.2o7.net", "A", "198.51.100.9")
        # alpha: timing gap -- the tracker chain only shows up a month later
        ext11 = DnsRecordStore()
        ext11.add("m.alpha.com", "CNAME", "x0.2o7.net")
        ext11.add("x0.2o7.net", "A", "198.51.100.0")

        pool = IpPool()
        pool.add_address("198.51.100.2", "omniture")
        report = cross_validate(monthly, {"2020-10": ext10, "2020-11": ext11},
                                {"2020-10": ds}, [self.SIG], pool, psl)
        return report

    def test_correctness_archetypes(self, tmp_path, psl):
        report = self._setup(tmp_path, psl)
        reasons = {e["host"]: e["reason"] for e in report.correctness}
        assert reasons["m.alpha.com"] == "timing-gap"
        assert reasons["m.beta.com"] == "typo-domain"
        assert reasons["m.gamma.com"] == "stale-cname"
        assert reasons["m.eps.com"] == "missing-external-data"
        typo = next(e for e in report.correctness if e["host"] == "m.beta.com")
        assert typo["expected_suffix"] == "2o7.net"

    def test_completeness_buckets(self, tmp_path, psl):
        report = self._setup(tmp_path, psl)
        def hosts(bucket):
            return {e["host"] for e in report.completeness[bucket]
                    if e["month"] == "2020-10"}
        assert "m.delta.com" in hosts("absent-from-corpus")
        assert hosts("no-tracking-request") == {"m.zeta.com"}
        assert hosts("signature-mismatch") == {"m.theta.com"}
        assert hosts("ip-outside-pool") == {"m.iota.com"}
        # buckets are disjoint per (month, host)
        keys = [(e["month"], e["host"])
                for b in report.completeness.values() for e in b]
        assert len(keys) == len(set(keys))


def months_range(n, start_year=2020, start_month=1):
    out = []
    y, m = start_year, start_month
    for _ in range(n):
        out.append(f"{y:04d}-{m:02d}")
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return out


def synthetic_monthly(presence: dict[tuple[str, str], list[bool]], months):
    """MonthlyDetection sequence (newest first) from presence bitstrings."""
    out = []
    for i, month in enumerate(months):
        detections = [
            PublisherDetection(pub, trk, Context.SAME_SITE, [], Mechanism.CNAME)
            for (pub, trk), bits in sorted(presence.items()) if bits[i]
        ]
        out.append(MonthlyDetection(month, detections, {}))
    return list(reversed(out))


def brute_force_adoptions(presence, months, window=6):
    events = []
    for (pub, trk), bits in sorted(presence.items()):
        for i in range(len(bits)):
            if i - window < 0 or i + window > len(bits):
                continue
            if sum(bits[i - window:i]) == 0 and sum(bits[i:i + window]) == window:
                events.append((pub, trk, months[i]))
    return events


class TestAdoptionWindows:
    def test_textbook_event(self):
        months = months_range(14)
        bits = [False] * 7 + [True] * 7
        monthly = synthetic_monthly({("shop.com", "trk"): bits}, months)
        assert adoption_windows(monthly) == [("shop.com", "trk", months[7])]

    def test_flicker_is_not_adoption(self):
        months = months_range(14)
        bits = [False] * 6 + [True, False] + [True] * 6
        monthly = synthetic_monthly({("shop.com", "trk"): bits}, months)
        events = adoption_windows(monthly)
        assert ("shop.com", "trk", months[6]) not in events

    def test_random_bitstrings_match_brute_force(self):
        rng = random.Random(4242)
        months = months_range(20)
        for _ in range(50):
            presence = {
                (f"site{i}.com", "trk"): [rng.random() < 0.4 for _ in months]
                for i in range(5)
            }
            monthly = synthetic_monthly(presence, months)
            assert adoption_windows(monthly) == brute_force_adoptions(presence, months)


class TestThirdPartyTrend:
    def test_mean_blocked_third_parties_around_adoption(self, tmp_path, psl):
        from cnametrack.filterlist import parse_rule

        months = months_range(12)
        months_data = {}
        for i, month in enumerate(months):
            records = [corpusgen.visit_record(f"v{i}", "https://www.shop.com/",
                                              month=month)]
            if i < 6:  # third-party tracker present before adoption only
                records.append(corpusgen.txn_record(
                    f"v{i}", "https://cdn.adnet.example/pixel.gif"))
            path = corpusgen.write_jsonl(records, tmp_path / f"t{month}.jsonl")
            months_data[month] = MonthDataset(
                month, load_crawl_jsonl(path, psl), DnsRecordStore())
        rules = [parse_rule("||adnet.example^")]
        trend = third_party_trend(months_data,
                                  [("shop.com", "trk", months[6])], rules, psl)
        assert set(trend) == set(range(-6, 6))
        assert all(trend[o] == 1.0 for o in range(-6, 0))
        assert all(trend[o] == 0.0 for o in range(0, 6))
