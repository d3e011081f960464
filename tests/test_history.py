"""Historical-reconstruction tests: backward iteration with the IP pool,
cross-validation archetypes, and adoption-window analytics."""

import ipaddress
import json
import logging
import random
import sys
import weakref

import pytest

import corpusgen
from cnametrack import dnsgraph, reports
from cnametrack.cli import main as cli_main
from cnametrack.detect import Context, Mechanism, PublisherDetection
from cnametrack.dnsgraph import DnsRecordStore, IpPool
from cnametrack.errors import NonContiguousMonths
from cnametrack.history import (
    MonthDataset,
    MonthlyDetection,
    adoption_windows,
    backward_iterate,
    check_descending_contiguous,
    cross_validate,
    external_trackers,
    host_paths,
    is_month,
)
from cnametrack.ingest import load_crawl_jsonl, load_dns, load_signatures
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


    def test_max_depth_bounds_pool_accumulation(self, psl):
        def month(name, cnames, ip, depth):
            store = DnsRecordStore(depth)
            for host, target in cnames:
                store.add(host, "CNAME", target)
            store.add("x.trk.net", "A", ip)
            visit = PageVisit("https://www.shop.com/", f"v-{name}",
                              transactions=[HttpTransaction("https://m.shop.com/x")])
            return MonthDataset(name, [visit], store)

        sigs = [TrackerSignature("trk", cname_suffixes=("trk.net",), path_patterns=("/*",))]
        for depth, older_owners in ((1, set()), (2, {"trk"})):
            pool = IpPool()
            backward_iterate([month("2020-02", [("m.shop.com", "x.trk.net")], "198.51.100.1", depth),
                              month("2020-01", [("m.shop.com", "a.cdn.org"), ("a.cdn.org", "x.trk.net")],
                                    "198.51.100.2", depth)],
                             sigs, psl, pool=pool)
            assert pool.owners("198.51.100.1") == {"trk"}
            # m.shop.com, confirmed in 2020-02, reaches 198.51.100.2 in two hops
            assert pool.owners("198.51.100.2") == older_owners, depth

    def test_shared_host_credits_every_tracker(self, psl):
        """A host that is evidence for two trackers adds the addresses it
        resolves to in older months to the pool of each, so the outcome does
        not depend on how the trackers are named."""
        def run(cname_id, range_id):
            sigs = [TrackerSignature(cname_id, cname_suffixes=("atrack.net",), path_patterns=("/*",)),
                    TrackerSignature(range_id, cidr_ranges=("10.0.0.0/24",), path_patterns=("/*",))]
            months = []
            for name, ip in (("2020-03", "10.0.0.5"), ("2020-02", "192.0.2.9"), ("2020-01", "192.0.2.77")):
                store = DnsRecordStore()
                store.add("m.shop.com", "CNAME", "x.atrack.net")
                store.add("x.atrack.net", "A", ip)
                visit = PageVisit("https://www.shop.com/", f"v-{name}",
                                  transactions=[HttpTransaction("https://m.shop.com/p.js")])
                months.append(MonthDataset(name, [visit], store))
            return backward_iterate(months, sigs, psl)

        def renamed(monthly, names):
            return [(m.month,
                     sorted((names[d.tracker_id], d.publisher_etld1, d.context.value,
                             d.cloaking_mechanism.value, [(r.visit_id, r.index) for r in d.evidence])
                            for d in m.detections),
                     {names[t]: counts for t, counts in m.pool_snapshot.items()})
                    for m in monthly]

        first = renamed(run("aaa", "zzz"), {"aaa": "cname", "zzz": "range"})
        assert first == renamed(run("zzz", "aaa"), {"zzz": "cname", "aaa": "range"})
        assert [[d[0] for d in dets] for _month, dets, _pool in first] == [["cname", "range"]] * 3


def cycle_world(root):
    """Two months of one host: on a tracker in 2020-02, on a CNAME cycle in
    2020-01; the external data of 2020-01 holds the cycle too."""
    manifest = []
    for month, answers in (("2020-02", [("m.shop.com", "CNAME", "x.trk.net"),
                                        ("x.trk.net", "A", "198.51.100.1")]),
                           ("2020-01", [("m.shop.com", "CNAME", "a.loop.org"),
                                        ("a.loop.org", "CNAME", "m.shop.com")])):
        vid = f"v-{month}"
        cpath = corpusgen.write_jsonl([corpusgen.visit_record(vid, "https://www.shop.com/", month=month),
                                       corpusgen.txn_record(vid, "https://m.shop.com/p.gif")],
                                      root / f"c-{month}.jsonl")
        dpath = corpusgen.write_jsonl([corpusgen.dns_line(a[0], [a], month) for a in answers],
                                      root / f"d-{month}.jsonl")
        manifest.append({"month": month, "corpus": str(cpath), "dns": str(dpath)})
    (root / "months.json").write_text(json.dumps(manifest))
    (root / "external.json").write_text(json.dumps({"2020-01": manifest[1]["dns"]}))
    sigs = [{"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/*"]}]
    return ["--months", str(root / "months.json"),
            "--signatures", str(corpusgen.write_signatures(root / "sigs.json", sigs))]


class TestCycleInOlderMonth:
    """A host confirmed in a newer month that cycles in an older month's DNS
    is skipped there, as detection skips it, with one warning per run."""

    @pytest.mark.parametrize("command", ["history", "validate"])
    def test_cli_skips_the_host(self, tmp_path, caplog, capsys, command):
        argv = [command, *cycle_world(tmp_path), "--out", str(tmp_path / "out")]
        if command == "validate":
            argv += ["--external-dns", str(tmp_path / "external.json")]
        with caplog.at_level(logging.WARNING):
            assert cli_main(argv) == 0
        assert capsys.readouterr().err == ""
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == ["skipping host with CNAME cycle: CNAME cycle at m.shop.com: "
                            "m.shop.com -> a.loop.org -> m.shop.com"]
        if command == "history":
            older = json.loads((tmp_path / "out" / "month_2020-01.json").read_text())
            assert older["detections"] == []
            assert older["pool"] == {"trk": {"singles": 1, "ranges": 0}}


def test_each_chain_resolved_once_per_snapshot(tmp_path, monkeypatch):
    """history, external_trackers and cross_validate share each store's memo."""
    resolved: dict[tuple, int] = {}
    stores = []  # kept alive, so that no id is reused
    resolve = dnsgraph.resolve_chain

    def counting(host, store, max_depth):
        stores.append(store)
        key = (id(store), host)
        resolved[key] = resolved.get(key, 0) + 1
        return resolve(host, store, max_depth)

    monkeypatch.setattr(dnsgraph, "resolve_chain", counting)
    for seed in range(4):
        (tmp_path / str(seed)).mkdir()
        world = random_month_world(random.Random(seed), tmp_path / str(seed))
        assert cli_main(["validate", "--months", world["months"], "--signatures", world["signatures"],
                         "--external-dns", world["external"], "--out", str(tmp_path / f"v{seed}")]) == 0
    assert resolved and max(resolved.values()) == 1


@pytest.mark.parametrize("command", ["history", "validate"])
def test_each_address_parsed_once_per_run(tmp_path, monkeypatch, command):
    """The run's IpPool parses each address string once for every month's
    detection, pool growth and validation."""
    parsed: dict[str, int] = {}
    ip_address = ipaddress.ip_address

    def counting(addr):
        if sys._getframe(1).f_globals["__name__"] in ("cnametrack.dnsgraph", "cnametrack.detect"):
            parsed[addr] = parsed.get(addr, 0) + 1
        return ip_address(addr)

    monkeypatch.setattr(ipaddress, "ip_address", counting)
    for seed in range(3):
        (tmp_path / str(seed)).mkdir()
        world = random_month_world(random.Random(seed), tmp_path / str(seed))
        parsed.clear()
        external = ["--external-dns", world["external"]] if command == "validate" else []
        assert cli_main([command, "--months", world["months"], "--signatures", world["signatures"],
                         *external, "--out", str(tmp_path / f"out{seed}")]) == 0
        assert parsed and max(parsed.values()) == 1


def planted_month(tmp_path, psl, month, refs=None) -> MonthDataset:
    """One planted month read from disk; weak references to the dataset and
    its DNS store go to ``refs``."""
    corpora, dns_lines, _truth = corpusgen.planted_world()
    path = corpusgen.write_jsonl(corpora[month], tmp_path / f"{month}.jsonl")
    ds = MonthDataset(month, load_crawl_jsonl(path, psl), build_store(dns_lines[month]))
    if refs is not None:
        refs.append((month, weakref.ref(ds), weakref.ref(ds.dns)))
    return ds


def outcome(monthly):
    return [(m.month, m.detections, m.pool_snapshot) for m in monthly]


class TestStreaming:
    def test_generator_fed_holds_one_month(self, tmp_path, psl):
        months, sigs, _ = planted_months(tmp_path, psl)
        refs = []
        requested = []

        def stream():
            for month in corpusgen.MONTHS:
                # the previous month must be gone when this one is requested
                requested.append([(m, ds() is None, dns() is None) for m, ds, dns in refs])
                yield planted_month(tmp_path, psl, month, refs)

        monthly = backward_iterate(stream(), sigs, psl)
        assert outcome(monthly) == outcome(backward_iterate(months, sigs, psl))
        assert requested == [[]] + [[(m, True, True) for m in corpusgen.MONTHS[:i]]
                                    for i in (1, 2)]
        assert all(ds() is None and dns() is None for _m, ds, dns in refs)

    def test_generator_with_gap_rejected(self, psl):
        months = (MonthDataset(m, [], DnsRecordStore()) for m in ("2020-10", "2020-09", "2020-07"))
        with pytest.raises(NonContiguousMonths, match="2020-09 -> 2020-07"):
            backward_iterate(months, [], psl)

    @pytest.mark.parametrize("months,message", [
        (["2020-10", "2020-08"], "months 2020-10 -> 2020-08 are not contiguous (missing 2020-09)"),
        (["2021-01", "2020-10"],
         "months 2021-01 -> 2020-10 are not contiguous (missing 2020-11 to 2020-12)"),
        (["2020-10", "2020-10"], "months 2020-10 -> 2020-10 are not contiguous (duplicate 2020-10)"),
        (["2020-09", "2020-10"],
         "months 2020-09 -> 2020-10 are not contiguous (2020-10 is not older than 2020-09)"),
    ])
    def test_non_contiguous_message_names_the_fault(self, months, message):
        with pytest.raises(NonContiguousMonths) as exc:
            check_descending_contiguous(months)
        assert str(exc.value) == message
        with pytest.raises(NonContiguousMonths) as exc:
            check_descending_contiguous(months, "m.json")
        assert str(exc.value) == f"m.json: {message}"

    def test_generator_with_duplicate_rejected(self, psl):
        months = (MonthDataset(m, [], DnsRecordStore()) for m in ("2020-10", "2020-09", "2020-09"))
        with pytest.raises(NonContiguousMonths, match=r"2020-09 -> 2020-09 .*\(duplicate 2020-09\)"):
            backward_iterate(months, [], psl)

    @pytest.mark.parametrize("value,ok", [
        ("2020-01", True), ("1999-12", True), ("0000-10", True),
        ("2020-00", False), ("2020-13", False), ("2020-1", False), ("20-01", False),
        ("2020/01", False), ("x", False), ("2020-01 ", False), ("2020-01\n", False),
        ("２０２０-01", False), (202001, False), (None, False),
    ])
    def test_is_month(self, value, ok):
        assert is_month(value) is ok

    @pytest.mark.parametrize("seed", range(8))
    def test_streamed_cli_equals_list_fed(self, tmp_path, psl, seed):
        world = random_month_world(random.Random(seed), tmp_path)
        args = ["--months", world["months"], "--signatures", world["signatures"]]
        assert cli_main(["history", *args, "--out", str(tmp_path / "hist")]) == 0
        assert cli_main(["validate", *args, "--external-dns", world["external"],
                         "--out", str(tmp_path / "val")]) == 0

        sigs = load_signatures(world["signatures"])
        months = sorted((MonthDataset(e["month"], load_crawl_jsonl(e["corpus"], psl), load_dns(e["dns"]))
                         for e in world["manifest"]), key=lambda m: m.month, reverse=True)
        pool = IpPool()
        monthly = backward_iterate(months, sigs, psl, pool=pool)
        assert len(monthly) == len(world["manifest"])
        ref = tmp_path / "ref"
        ref.mkdir()
        for m in monthly:
            name = f"month_{m.month}.json"
            reports.write_json({"month": m.month, "pool": m.pool_snapshot,
                                "detections": [reports.detection_to_dict(d) for d in m.detections]},
                               ref / name)
            assert (tmp_path / "hist" / name).read_bytes() == (ref / name).read_bytes()
        external = {m: load_dns(p) for m, p in world["external_map"].items()}
        every_path = {m.month: host_paths(m.corpus, {t.host for v in m.corpus for t in v.transactions})
                      for m in months}
        report = cross_validate(monthly, external, external_trackers(external, sigs), every_path,
                                sigs, pool)
        reports.write_json({"correctness": report.correctness, "completeness": report.completeness},
                           ref / "validation.json")
        assert (tmp_path / "val" / "validation.json").read_bytes() == (ref / "validation.json").read_bytes()


def corpusgen_signatures():
    return [TrackerSignature(s["tracker_id"], cname_suffixes=tuple(s["cname_suffixes"]),
                             cidr_ranges=tuple(s["cidr_ranges"]), path_patterns=tuple(s["path_patterns"]))
            for s in corpusgen.TRACKER_SIGNATURES]


def random_month_world(rng: random.Random, root):
    """A few contiguous months of small random crawls, their DNS and an
    external DNS manifest, written under ``root``: cloaked hosts move between
    tracker addresses, so older months depend on the pool newer ones built."""
    n = rng.randint(2, 5)
    start = rng.randrange(2015 * 12, 2025 * 12)
    months = [f"{i // 12:04d}-{i % 12 + 1:02d}" for i in range(start + n - 1, start - 1, -1)]
    suffixes = ["eulertrack.net", "pixelstats.io", "2o7.net"]
    paths = ["/ea/collect?uid=1", "/ea/x", "/collect?pid=2", "/collect", "/b/ss/v1/collect",
             "/b/ss/v1/other", "/img/logo.png", "/"]
    sites = [f"site{i}.com" for i in range(rng.randint(2, 5))]

    def address():
        return rng.choice([f"198.51.100.{rng.randint(0, 5)}", "203.0.113.3"])

    manifest, external = [], {}
    for month in months:
        records, dns = [], []
        for j, site in enumerate(sites):
            vid = f"{month}-v{j}"
            records.append(corpusgen.visit_record(vid, f"https://www.{site}/", month=month))
            for _ in range(rng.randint(0, 5)):
                host = (f"{rng.choice(['m', 'metrics', 'img'])}.{site}" if rng.random() < 0.85
                        else f"t.{rng.choice(suffixes)}")
                dot = "." if rng.random() < 0.1 else ""  # a fully qualified name
                records.append(corpusgen.txn_record(
                    vid, f"https://{host}{dot}{rng.choice(paths)}",
                    remote_ip=rng.choice([None, address()])))
            for label in ("m", "metrics", "img"):
                host = f"{label}.{site}"
                if rng.random() < 0.4:
                    target = f"x{rng.randint(0, 2)}.{rng.choice(suffixes)}"
                    dns.append(corpusgen.dns_line(host, [(host, "CNAME", target)], month))
                    dns.append(corpusgen.dns_line(target, [(target, "A", address())], month))
                elif rng.random() < 0.6:
                    dns.append(corpusgen.dns_line(host, [(host, "A", address())], month))
        cpath = corpusgen.write_jsonl(records, root / f"c-{month}.jsonl")
        dpath = corpusgen.write_jsonl(dns, root / f"d-{month}.jsonl")
        manifest.append({"month": month, "corpus": str(cpath), "dns": str(dpath)})
        if rng.random() < 0.8:
            ext = [line for line in dns if rng.random() < 0.7]
            for site in rng.sample(sites, rng.randint(0, len(sites))):
                host = f"{rng.choice(['m', 'metrics', 'img', 'cdn'])}.{site}"
                # a tracker, a near miss of one (typo) or a parked name
                target = rng.choice([f"z.{rng.choice(suffixes)}", "y.207.net", "old.cdn-park.com"])
                ext.append(corpusgen.dns_line(host, [(host, "CNAME", target)]))
            ext.append(corpusgen.dns_line("old.cdn-park.com", [("old.cdn-park.com", "A", address())]))
            external[month] = str(corpusgen.write_jsonl(ext, root / f"e-{month}.jsonl"))
    if rng.random() < 0.5:  # a later month, outside the crawl, that only the external data has
        later = f"{(start + n) // 12:04d}-{(start + n) % 12 + 1:02d}"
        hosts = [f"{label}.{site}" for site in sites for label in ("m", "metrics", "img")]
        ext = [corpusgen.dns_line(h, [(h, "CNAME", f"z.{rng.choice(suffixes)}")])
               for h in rng.sample(hosts, 3)]
        external[later] = str(corpusgen.write_jsonl(ext, root / f"e-{later}.jsonl"))
    rng.shuffle(manifest)
    months_path = root / "months.json"
    months_path.write_text(json.dumps(manifest))
    external_path = root / "external.json"
    external_path.write_text(json.dumps(external))
    return {"months": str(months_path), "manifest": manifest, "external": str(external_path),
            "external_map": external,
            "signatures": str(corpusgen.write_signatures(root / "sigs.json", RANDOM_WORLD_SIGS))}


RANDOM_WORLD_SIGS = corpusgen.TRACKER_SIGNATURES + [
    {"tracker_id": "omniture", "cname_suffixes": ["2o7.net"], "path_patterns": ["/b/ss/*/collect"]},
]


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
        external = {"2020-10": ext10, "2020-11": ext11}
        trackers = external_trackers(external, [self.SIG])
        report = cross_validate(monthly, external, trackers,
                                {"2020-10": host_paths(ds.corpus, trackers["2020-10"])},
                                [self.SIG], pool)
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

    def test_timing_gap_for_fully_qualified_host(self, tmp_path, psl):
        """A request host with a trailing dot is the same DNS name as without."""
        path = corpusgen.write_jsonl([
            corpusgen.visit_record("v0", "https://www.alpha.com/"),
            corpusgen.txn_record("v0", "https://m.alpha.com./b/ss/v1/collect")], tmp_path / "c.jsonl")
        internal = DnsRecordStore()
        internal.add("m.alpha.com", "CNAME", "x0.2o7.net")
        ds = MonthDataset("2020-10", load_crawl_jsonl(path, psl), internal)
        monthly = backward_iterate([ds], [self.SIG], psl)
        assert [r.host for d in monthly[0].detections for r in d.evidence] == ["m.alpha.com"]
        ext11 = DnsRecordStore()
        ext11.add("m.alpha.com", "CNAME", "x0.2o7.net")
        external = {"2020-10": DnsRecordStore(), "2020-11": ext11}
        report = cross_validate(monthly, external, external_trackers(external, [self.SIG]),
                                {}, [self.SIG], None)
        assert [e["reason"] for e in report.correctness] == ["timing-gap"]

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
