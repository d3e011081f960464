"""The signature index against the per-signature reference scan.

``detect_publishers`` checks each transaction only against the signatures
its chain hops, terminal addresses and remote address can reach;
tests/naivedetect.py keeps the loop that routed every transaction through
every signature.  Both must give equal detections, evidence and mechanism
included, on every input, including the ones an index can get wrong:
upper-case and trailing-dot CNAME answers (which a store keeps canonical),
empty labels, suffixes and path patterns shared by several signatures,
duplicate tracker ids (whose declared ranges count for each other, and
whose signatures give one evidence ref per transaction), IPv6 and invalid
addresses, and a pool holding singles and ranges.  ``detect_publishers`` files the declared ranges into
the pool it is given, so it gets its own copy of each random pool.

``classified_transactions`` builds each request origin once per (scheme,
host, port) instead of once per request; it must classify every request
as the per-request reference does, whatever its port, scheme or userinfo.
"""

import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naivedetect
from cnametrack import history
from cnametrack.detect import (
    Mechanism,
    SignatureIndex,
    classified_transactions,
    detect_publishers,
)
from cnametrack.dnsgraph import DnsRecordStore, IpPool
from cnametrack.model import HttpTransaction, PageVisit, TrackerSignature
from cnametrack.sitectx import PublicSuffixTable

PSL = PublicSuffixTable.bundled()

_TRACKER_IDS = ["t0", "t1", "t2"]
# "TRK.net" and "trk.net." can never match a normalized hop; "" and
# ".trk.net" only match hops with empty labels
_SUFFIXES = ["trk.net", "trk.net", "b.trk.net", "net", "metrics.io", "cdn.org",
             "TRK.net", "trk.net.", "", ".trk.net"]
_CIDRS = ["203.0.113.0/28", "198.51.100.0/24", "2001:db8::/32", "2001:db8:1::/48",
          "10.0.0.0/8"]
_PATTERNS = ["/ea/*", "/collect*", "/collect", "*", "/p?q=[ab]*", "/EA/*", "/x*y*z"]
_HOPS = ["x.trk.net", "X.Trk.NET.", "a..trk.net", ".trk.net", "y.b.trk.net", "trk.net",
         "edge.metrics.io", "c.cdn.org", "deep.x.trk.net", "trk.net.evil.com", "", "cdn.org."]
_ADDRS = ["203.0.113.4", "203.0.113.200", "198.51.100.7", "2001:db8::5", "2001:db8:1::9",
          "10.1.2.3", "192.0.2.1", "::ffff:203.0.113.4", "not-an-ip"]
_REMOTE = [None, "", "not-an-ip", "999.1.1.1", "203.0.113.5", "2001:db8::7", "192.0.2.1",
           "198.51.100.9", "10.9.9.9"]
_PATHS = ["/ea/collect", "/collect?id=1", "/collect", "/EA/x", "/p?q=b1", "/xyz", "/xyz1", "/other", "/"]


def _random_sigs(rng: random.Random) -> list[TrackerSignature]:
    sigs = []
    for _ in range(rng.randint(1, 5)):
        suffixes = tuple(rng.sample(_SUFFIXES, rng.randint(0, 2)))
        cidrs = tuple(rng.sample(_CIDRS, rng.randint(0 if suffixes else 1, 2)))
        patterns = tuple(rng.sample(_PATTERNS, rng.randint(1, 2)))
        sigs.append(TrackerSignature(rng.choice(_TRACKER_IDS), cname_suffixes=suffixes,
                                     cidr_ranges=cidrs, path_patterns=patterns))
    return sigs


def _random_pool(rng: random.Random):
    """A function building a fresh copy of one random pool each call, or
    building None."""
    if rng.random() < 0.25:
        return lambda: None
    ranges = [(rng.choice(["203.0.113.0/24", "2001:db8::/48", "10.1.0.0/16", "192.0.2.0/30"]),
               rng.choice(_TRACKER_IDS + ["other"])) for _ in range(rng.randint(0, 3))]
    addrs = [(rng.choice(_ADDRS[:-1] + _REMOTE[4:]), rng.choice(_TRACKER_IDS + ["other"]))
             for _ in range(rng.randint(0, 4))]

    def build():
        pool = IpPool()
        for cidr, tracker_id in ranges:
            pool.add_range(cidr, tracker_id)
        for addr, tracker_id in addrs:
            pool.add_address(addr, tracker_id)
        return pool
    return build


def test_signature_rejects_a_range_that_does_not_parse():
    with pytest.raises(ValueError, match="'not-a-cidr' does not appear to be"):
        TrackerSignature("t0", cidr_ranges=("203.0.113.0/28", "not-a-cidr"), path_patterns=("/*",))


def _random_world(rng: random.Random):
    sites = [f"site{i}.com" for i in range(3)] + ["shop.co.uk"]
    store = DnsRecordStore()
    hosts = []
    for site in sites:
        for label in ("m", "metrics", "www", "img"):
            host = f"{label}.{site}"
            hosts.append(host)
            if rng.random() < 0.6:
                target = rng.choice(_HOPS)
                store.add(host, "CNAME", target)
                if rng.random() < 0.3:
                    second = rng.choice(_HOPS)
                    store.add(target, "CNAME", second)
                    target = second
                if rng.random() < 0.1:
                    store.add(target, "CNAME", host)  # a cycle
                for addr in rng.sample(_ADDRS, rng.randint(0, 2)):
                    store.add(target, "A", addr)
            elif rng.random() < 0.5:
                store.add(host, "A", rng.choice(_ADDRS))
    hosts += ["x.trk.net", "203.0.113.5", "[2001:db8::5]", "localhost", "github.io"]
    corpus = []
    for v in range(rng.randint(1, 6)):
        site = rng.choice(sites)
        page = rng.choice([f"https://www.{site}/", f"http://{site}/", "https://localhost/"])
        visit = PageVisit(page, f"v{v}", site=rng.choice([None, None, site]))
        for _ in range(rng.randint(0, 6)):
            host = rng.choice(hosts)
            if rng.random() < 0.15:
                host = host.upper()
            elif rng.random() < 0.1:
                host += "."
            port = rng.choice(["", "", ":8443"])
            visit.transactions.append(HttpTransaction(
                f"{rng.choice(['https', 'http'])}://{host}{port}{rng.choice(_PATHS)}",
                remote_ip=rng.choice(_REMOTE)))
        corpus.append(visit)
    return corpus, store, _random_sigs(rng), _random_pool(rng)


def _quiet(fn, *args):
    logger = logging.getLogger("cnametrack.detect")
    level = logger.level
    logger.setLevel(logging.ERROR)  # cycle warnings are covered in test_history
    try:
        return fn(*args)
    finally:
        logger.setLevel(level)


def run_detect_cases(n_cases: int, seed: int) -> dict[str, int]:
    """Compare the index with the reference on random worlds; returns what
    the cases covered."""
    rng = random.Random(seed)
    seen = dict.fromkeys(["cname", "direct", "ipv6", "pool_only", "dup_ids", "one_ref_many_sigs",
                          "shared_suffix"], 0)
    for _ in range(n_cases):
        corpus, store, sigs, new_pool = _random_world(rng)
        pool = new_pool()
        want = _quiet(naivedetect.detect_publishers, corpus, store, sigs, pool, PSL)
        got = _quiet(detect_publishers, corpus, store, sigs, new_pool(), PSL)
        assert got == want, ([(s.tracker_id, s.cname_suffixes, s.cidr_ranges, s.path_patterns)
                              for s in sigs], got, want)
        if not want:
            continue
        mechs = {d.cloaking_mechanism for d in want}
        seen["cname"] += Mechanism.CNAME in mechs
        seen["direct"] += Mechanism.DIRECT_A_RECORD in mechs
        seen["dup_ids"] += len({s.tracker_id for s in sigs}) < len(sigs)
        suffixes = [x for s in sigs for x in set(s.cname_suffixes)]
        seen["shared_suffix"] += len(set(suffixes)) < len(suffixes)
        cache = naivedetect.ChainCache(store)
        by_visit = {v.visit_id: v for v in corpus}
        for det in want:
            tracker_sigs = [s for s in sigs if s.tracker_id == det.tracker_id]
            for ref in det.evidence:
                chain = _quiet(cache.get, ref.host)
                txn = by_visit[ref.visit_id].transactions[ref.index]
                seen["one_ref_many_sigs"] += sum(
                    naivedetect.signature_match_route(txn, chain, s, sigs, pool) is not None
                    for s in tracker_sigs) > 1
                if det.cloaking_mechanism is not Mechanism.CNAME:
                    addrs = list(chain.terminal_ips) if chain is not None else []
                    addrs.append(txn.remote_ip or "")
                    seen["ipv6"] += any(":" in a for a in addrs)
        if pool is not None:
            seen["pool_only"] += want != _quiet(naivedetect.detect_publishers,
                                                corpus, store, sigs, None, PSL)
    return seen


def test_index_equals_reference_randomized():
    seen = run_detect_cases(1500, seed=20261018)
    # the generator reaches every kind of input the index could get wrong
    assert all(n >= 20 for n in seen.values()), seen


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_index_equals_reference_hypothesis(seed):
    run_detect_cases(3, seed=seed)


class TestSignatureIndex:
    SIGS = [
        TrackerSignature("a", cname_suffixes=("trk.net",), path_patterns=("/*",)),
        TrackerSignature("b", cname_suffixes=("b.trk.net", "trk.net"), path_patterns=("/*",)),
        TrackerSignature("c", cname_suffixes=("", ".trk.net", "TRK.net", "trk.net."),
                         path_patterns=("/*",)),
        TrackerSignature("a", cidr_ranges=("2001:db8::/32",), path_patterns=("/*",)),
    ]

    def _naive(self, hops):
        return {i for i, s in enumerate(self.SIGS) if any(s.host_matches(h) for h in hops)}

    def test_label_suffixes_equal_host_matches(self):
        index = SignatureIndex(self.SIGS)
        for hops in (["x.trk.net"], ["y.b.trk.net"], ["trk.net.evil.com"],
                     ["a..trk.net"], [".trk.net"], [""], ["net"], ["xtrk.net"], ["b.trk.net", ""]):
            assert index.cname_positions(hops) == self._naive(hops), hops

    def test_address_positions(self):
        pool = IpPool()
        pool.add_signatures(self.SIGS)
        pool.add_range("203.0.113.0/24", "b")
        pool.add_address("192.0.2.1", "a")
        index = SignatureIndex(self.SIGS, pool)
        assert index.address_positions("2001:db8::1") == {0, 3}  # the range of "a" counts for both
        assert index.address_positions("203.0.113.9") == {1}
        assert index.address_positions("192.0.2.1") == {0, 3}  # both signatures of tracker "a"
        assert index.address_positions("not-an-ip") == set()
        assert index.address_positions("::ffff:203.0.113.9") == set()

    def test_external_chain_takes_first_signature_in_list_order(self):
        store = DnsRecordStore()
        store.add("m.shop.com", "CNAME", "x.b.trk.net")
        sigs = [self.SIGS[1], self.SIGS[0]]
        sig, chain = history._external_tracker_chain("m.shop.com", store, SignatureIndex(sigs))
        assert sig is sigs[0] and chain.hops == ("x.b.trk.net",)
        assert naivedetect._external_tracker_chain("m.shop.com", store, sigs)[0] is sigs[0]

    def test_external_chain_equals_reference(self):
        rng = random.Random(3)
        for _ in range(300):
            _corpus, store, sigs, _pool = _random_world(rng)
            index = SignatureIndex(sigs)
            for host in list(store.hostnames()):
                got = history._external_tracker_chain(host, store, index)
                want = naivedetect._external_tracker_chain(host, store, sigs)
                assert got[0] is want[0] and got[1] == want[1], host


_PAGES = ["https://www.shop.com/", "http://shop.com:8080/", "https://192.0.2.1/", "ftp://shop.com/",
          "https://github.io/", "http://localhost/"]
_SCHEMES = ["https", "http", "HTTPS", "ftp"]
_USERINFO = ["", "", "u:p@", "u@"]
_ORIGIN_HOSTS = ["www.shop.com", "cdn.shop.com", "x.trk.net", "localhost", "github.io", "a.github.io",
                 "192.0.2.1", "[2001:db8::1]", "", "bad_host!", "WWW.Shop.com"]
_PORTS = ["", "", ":443", ":80", ":8080", ":0", ":99999", ":abc", ":"]


def test_memoized_origins_equal_per_request_classification():
    rng = random.Random(17)
    relations = set()
    for _ in range(300):
        corpus = []
        for v in range(3):
            visit = PageVisit(rng.choice(_PAGES), f"v{v}")
            for _ in range(8):
                visit.transactions.append(HttpTransaction(
                    f"{rng.choice(_SCHEMES)}://{rng.choice(_USERINFO)}{rng.choice(_ORIGIN_HOSTS)}"
                    f"{rng.choice(_PORTS)}/p"))
            corpus.append(visit)
        origins: dict = {}  # one memo across the visits, as a run shares it
        for visit in corpus:
            got = list(classified_transactions(visit, PSL, origins))
            want = list(naivedetect.classified_transactions(visit, PSL))
            assert got == want, [t.request_url for t in visit.transactions]
            relations.update(r for _t, r in want)
        assert len(origins) <= len(_SCHEMES) * len(_ORIGIN_HOSTS) * 5
    assert len(relations) == 3


def test_pool_owners_match_contains_and_lookup():
    pool = IpPool()
    pool.add_range("203.0.113.0/24", "b")
    pool.add_range("203.0.113.0/28", "a")
    pool.add_address("203.0.113.4", "c")
    pool.add_address("2001:db8::1", "a")
    assert pool.owners("203.0.113.4") == {"a", "b", "c"}
    assert pool.owners("203.0.113.100") == {"b"}
    assert pool.owners("2001:db8::1") == {"a"}
    assert pool.owners("bogus") == set()
    assert pool.contains("203.0.113.100", "b") and not pool.contains("203.0.113.100", "a")

