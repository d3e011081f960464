"""Chain resolution and IP-pool tests, including the exhaustive small-graph
totality check against the independent reference walker."""

import gc
import ipaddress
import json
import logging
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainref import enumerate_graphs, random_graph, reference_walk, store_from_graph
from cnametrack import dnsgraph
from cnametrack.dnsgraph import (
    DnsRecordStore,
    IpPool,
    NetworkIndex,
    accumulate_ips,
    resolve_chain,
    uncloaked_target,
)
from cnametrack.errors import CnameCycle, CnametrackError, InvalidCidr
from cnametrack.ingest import load_dns
from naivedns import NaiveDnsRecordStore
from naivepool import NaiveIpPool


def make_store(cnames=(), a_records=(), max_depth=10):
    store = DnsRecordStore(max_depth)
    for host, target in cnames:
        store.add(host, "CNAME", target)
    for host, ip in a_records:
        store.add(host, "A", ip)
    return store


class TestResolveChain:
    def test_simple_chain(self):
        store = make_store(
            cnames=[("metrics.shop.com", "c1.tracker.net"),
                    ("c1.tracker.net", "edge.tracker.net")],
            a_records=[("edge.tracker.net", "203.0.113.9")],
        )
        chain = resolve_chain("metrics.shop.com", store)
        assert chain.hops == ("c1.tracker.net", "edge.tracker.net")
        assert chain.terminal_ips == ("203.0.113.9",)
        assert chain.last_hop == "edge.tracker.net"
        assert not chain.truncated

    def test_no_record_is_truncated(self):
        chain = resolve_chain("unknown.example.com", make_store())
        assert chain.truncated and not chain.hops and not chain.terminal_ips

    def test_direct_a_record(self):
        store = make_store(a_records=[("host.example.com", "192.0.2.5")])
        chain = resolve_chain("host.example.com", store)
        assert chain.hops == () and chain.terminal_ips == ("192.0.2.5",)
        assert not chain.truncated

    def test_cycle_raises(self):
        store = make_store(cnames=[("a.test", "b.test"), ("b.test", "a.test")])
        with pytest.raises(CnameCycle) as exc:
            resolve_chain("a.test", store)
        assert exc.value.host == "b.test" or exc.value.host == "a.test"

    def test_self_loop_raises(self):
        store = make_store(cnames=[("a.test", "a.test")])
        with pytest.raises(CnameCycle):
            resolve_chain("a.test", store)

    def test_depth_cap_truncates(self):
        cnames = [(f"h{i}.test", f"h{i+1}.test") for i in range(20)]
        store = make_store(cnames=cnames)
        chain = resolve_chain("h0.test", store, max_depth=10)
        assert chain.truncated and len(chain.hops) == 10

    def test_case_insensitive(self):
        store = make_store(cnames=[("Metrics.Shop.COM", "T.Tracker.NET")],
                           a_records=[("t.tracker.net", "192.0.2.1")])
        chain = resolve_chain("METRICS.shop.com", store)
        assert chain.hops == ("t.tracker.net",)

    def test_duplicate_cname_keeps_first(self, caplog):
        store = DnsRecordStore()
        store.add("a.test", "CNAME", "b.test")
        store.add("a.test", "CNAME", "c.test")
        assert store.cname_target("a.test") == "b.test"


class TestChainMemo:
    """``DnsRecordStore.chain``: ``resolve_chain`` once per host, at the
    store's depth."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(host, store, max_depth):
            seen.append((host, max_depth))
            return resolve(host, store, max_depth)

        resolve = dnsgraph.resolve_chain
        monkeypatch.setattr(dnsgraph, "resolve_chain", counting)
        return seen

    def test_resolved_once_per_host_and_depth(self, calls):
        cnames = [("m.shop.com", "a.cdn.net"), ("a.cdn.net", "x.trk.net")]
        a_records = [("x.trk.net", "192.0.2.1")]
        store = make_store(cnames, a_records)
        chain = store.chain("m.shop.com")
        assert chain == resolve_chain("m.shop.com", store)
        assert store.chain("M.Shop.com.") is chain
        shallow = make_store(cnames, a_records, max_depth=1)
        short = shallow.chain("m.shop.com")
        assert short.truncated and short.hops == ("a.cdn.net",)
        assert shallow.chain("m.shop.com") is short
        assert calls == [("m.shop.com", 10), ("m.shop.com", 1)]

    def test_cycle_is_none_with_its_error(self, calls):
        store = make_store(cnames=[("a.test", "b.test"), ("b.test", "a.test")])
        assert store.chain("a.test") is None and store.chain("a.test") is None
        cycle = store.cycle("a.test")
        assert isinstance(cycle, CnameCycle)
        assert str(cycle) == "CNAME cycle at a.test: a.test -> b.test -> a.test"
        assert cycle.__traceback__ is None
        assert store.cycle("b.test") is not cycle and len(calls) == 2
        assert make_store().cycle("a.test") is None

    def test_bad_depth_still_raises(self, tmp_path):
        """A cap below 1 is refused when the store is built or loaded, with
        a toolkit error; the unmemoized ``resolve_chain`` keeps its ValueError."""
        path = tmp_path / "dns.jsonl"
        path.write_text("")
        for depth in (0, -1):
            with pytest.raises(CnametrackError, match=f"^max_depth must be at least 1, not {depth}$"):
                make_store(cnames=[("a.test", "b.test")], max_depth=depth)
            with pytest.raises(CnametrackError, match="max_depth must be at least 1"):
                load_dns(path, depth)
            with pytest.raises(ValueError):
                resolve_chain("a.test", make_store(cnames=[("a.test", "b.test")]), depth)

    def test_add_after_lookup_is_not_served_stale(self, calls):
        store = make_store(cnames=[("m.shop.com", "x.trk.net")])
        assert store.chain("m.shop.com").terminal_ips == ()
        store.add("x.trk.net", "A", "192.0.2.1")
        assert store.chain("m.shop.com").terminal_ips == ("192.0.2.1",)
        store.add("x.trk.net", "CNAME", "m.shop.com")  # now a cycle
        assert store.chain("m.shop.com") is None
        assert len(calls) == 3

    def test_cycle_pins_no_caller_frame(self):
        store = make_store(cnames=[("a.test", "b.test"), ("b.test", "a.test")])

        class Local:
            pass

        def helper():
            local = Local()
            assert store.chain("a.test") is None
            return weakref.ref(local)

        ref = helper()
        gc.collect()
        assert ref() is None
        assert store.cycle("a.test") is not None  # the store and its memo live on


class TestUncloakedTarget:
    def test_uncloaks_to_tracker_site(self, psl):
        store = make_store(cnames=[("metrics.shop.com", "x.tracker.net")],
                           a_records=[("x.tracker.net", "192.0.2.1")])
        chain = resolve_chain("metrics.shop.com", store)
        assert uncloaked_target(chain, psl) == "tracker.net"

    def test_same_site_cname_is_not_cloaking(self, psl):
        store = make_store(cnames=[("www.shop.com", "origin.shop.com")],
                           a_records=[("origin.shop.com", "192.0.2.1")])
        chain = resolve_chain("www.shop.com", store)
        assert uncloaked_target(chain, psl) is None

    def test_no_hops_no_target(self, psl):
        store = make_store(a_records=[("h.shop.com", "192.0.2.1")])
        assert uncloaked_target(resolve_chain("h.shop.com", store), psl) is None


class TestTotality:
    def test_exhaustive_small_graphs(self):
        """Every digraph on <= 4 nodes (full 5-node space runs in acceptance)."""
        checked = 0
        for nodes, graph in enumerate_graphs(4):
            store = store_from_graph(graph)
            for start in nodes:
                expected = reference_walk(start, graph, 10)
                try:
                    chain = resolve_chain(start, store, 10)
                    got = ("chain", list(chain.hops), list(chain.terminal_ips),
                           chain.truncated)
                except CnameCycle:
                    got = ("cycle",)
                assert got[0] == expected[0], (graph, start)
                if expected[0] == "chain":
                    assert got[1:] == tuple(expected[1:]), (graph, start)
                checked += 1
        assert checked > 1000

    def test_random_graphs(self):
        rng = random.Random(20260824)
        for _ in range(2000):
            nodes, graph = random_graph(rng)
            store = store_from_graph(graph)
            start = rng.choice(nodes)
            expected = reference_walk(start, graph, 10)
            try:
                chain = resolve_chain(start, store, 10)
                got = ("chain", list(chain.hops), list(chain.terminal_ips),
                       chain.truncated)
            except CnameCycle:
                got = ("cycle",)
            assert got[0] == expected[0], (graph, start)
            if expected[0] == "chain":
                assert got[1:] == tuple(expected[1:]), (graph, start)


class TestIpPool:
    def test_range_and_single_lookup(self):
        pool = IpPool()
        pool.add_range("203.0.113.0/28", "trk")
        pool.add_address("198.51.100.7", "trk")
        assert pool.owners("203.0.113.5") == {"trk"}
        assert pool.owners("198.51.100.7") == {"trk"}
        assert pool.owners("8.8.8.8") == set()
        assert pool.contains("203.0.113.5", "trk")
        assert not pool.contains("203.0.113.5", "other")

    def test_bad_cidr_raises(self):
        with pytest.raises(InvalidCidr):
            IpPool().add_range("not-a-cidr", "trk")

    def test_bad_cidr_message_is_bounded(self):
        with pytest.raises(InvalidCidr) as info:
            IpPool().add_range("1" * 10_000, "trk")
        assert str(info.value) == f"'{'1' * 40}'... does not appear to be an IPv4 or IPv6 network"

    def test_single_covered_by_own_range_skipped(self):
        pool = IpPool()
        pool.add_range("203.0.113.0/28", "trk")
        pool.add_address("203.0.113.5", "trk")
        assert pool.summary() == {"trk": {"singles": 0, "ranges": 1}}

    def test_range_added_later_absorbs_own_singles(self):
        pool = IpPool()
        pool.add_address("203.0.113.5", "trk")
        pool.add_range("203.0.113.0/28", "trk")
        assert pool.summary() == {"trk": {"singles": 0, "ranges": 1}}

    def test_cross_tracker_address_has_every_owner(self):
        pool = IpPool()
        pool.add_range("203.0.113.0/24", "zeta")
        pool.add_address("203.0.113.5", "alpha")
        assert pool.owners("203.0.113.5") == {"alpha", "zeta"}
        assert pool.owners("203.0.113.6") == {"zeta"}

    def test_readding_an_address_keeps_one_owner(self):
        pool = IpPool()
        pool.add_address("192.0.2.1", "trk")
        pool.add_address("192.0.2.1", "trk")
        assert _pool_state(pool)[0] == {"192.0.2.1": ["trk"]}
        assert pool.summary() == {"trk": {"singles": 1, "ranges": 0}}

    def test_accumulate_from_confirmed_hosts(self):
        store = make_store(cnames=[("m.shop.com", "t.trk.net")],
                           a_records=[("t.trk.net", "198.51.100.9")])
        pool = IpPool()
        accumulate_ips({"m.shop.com": "trk"}, store, pool)
        assert pool.contains("198.51.100.9", "trk")
        assert pool.summary() == {"trk": {"singles": 1, "ranges": 0}}  # no declared range

    def test_accumulate_respects_max_depth(self):
        cnames = [("m.shop.com", "a.cdn.net"), ("a.cdn.net", "t.trk.net")]
        a_records = [("t.trk.net", "198.51.100.9")]
        shallow = accumulate_ips({"m.shop.com": "trk"}, make_store(cnames, a_records, max_depth=1), IpPool())
        assert shallow.summary() == {}
        deep = accumulate_ips({"m.shop.com": "trk"}, make_store(cnames, a_records, max_depth=2), IpPool())
        assert deep.contains("198.51.100.9", "trk")

    def test_accumulate_skips_cycle(self):
        store = make_store(cnames=[("m.shop.com", "a.loop.org"), ("a.loop.org", "m.shop.com"),
                                   ("n.shop.com", "t.trk.net")],
                           a_records=[("t.trk.net", "198.51.100.9")])
        pool = accumulate_ips({"m.shop.com": "trk", "n.shop.com": "trk"}, store, IpPool())
        assert pool.summary() == {"trk": {"singles": 1, "ranges": 0}}

    @settings(max_examples=200)
    @given(addrs=st.lists(st.integers(0, 255), min_size=1, max_size=20))
    def test_pool_growth_is_monotone(self, addrs):
        pool = IpPool()
        seen = []
        for octet in addrs:
            addr = f"10.0.0.{octet}"
            pool.add_address(addr, "trk")
            seen.append(addr)
            assert all(pool.contains(a, "trk") for a in seen)


# Small address universes so that random networks overlap and hold the probes.
_V4 = st.builds(lambda n: str(ipaddress.IPv4Address(0x0A000000 + n)), st.integers(0, 1023))
_V6 = st.builds(lambda n: str(ipaddress.IPv6Address((0xFE80 << 112) + n)), st.integers(0, 1023))
_SCOPED = st.builds(lambda a, z: f"{a}%{z}", _V6, st.sampled_from(["eth0", "1"]))
_ADDRS = st.one_of(_V4, _V6, _SCOPED, st.builds(lambda a: f"::ffff:{a}", _V4),
                   st.sampled_from(["10.0.0.0", "10.0.3.255", "fe80::", "0.0.0.0", "::", "255.255.255.255"]))
_NETS = st.one_of(
    st.builds("{}/{}".format, _V4, st.sampled_from([0, 1, 8, 22, 23, 24, 30, 31, 32])),
    st.builds("{}/{}".format, st.one_of(_V6, _SCOPED), st.sampled_from([0, 1, 64, 118, 120, 127, 128])),
)


class TestNetworkIndex:
    """``NetworkIndex.lookup`` against a linear ``ip in net`` scan."""

    @settings(max_examples=300, deadline=None)
    @given(nets=st.lists(_NETS, max_size=12), probes=st.lists(_ADDRS, min_size=1, max_size=12))
    def test_lookup_equals_linear_scan(self, nets, probes):
        networks = [ipaddress.ip_network(n, strict=False) for n in nets]
        index = NetworkIndex()
        for pos, net in enumerate(networks):
            index.add(net, pos)
        for addr in probes:
            ip = ipaddress.ip_address(addr)
            assert sorted(index.lookup(ip)) == [pos for pos, net in enumerate(networks) if ip in net]

    def test_listed_edges(self):
        nets = ["0.0.0.0/0", "10.0.0.7/32", "10.0.0.0/24", "10.0.0.9/24", "::/0",
                "fe80::1/128", "fe80::%eth0/64", "fe80::/64", "::ffff:10.0.0.0/120"]
        index = NetworkIndex()
        for n in nets:
            index.add(ipaddress.ip_network(n, strict=False), n)
        assert sorted(index.lookup(ipaddress.ip_address("10.0.0.7"))) == sorted(
            ["0.0.0.0/0", "10.0.0.7/32", "10.0.0.0/24", "10.0.0.9/24"])
        assert sorted(index.lookup(ipaddress.ip_address("fe80::1%eth1"))) == sorted(
            ["::/0", "fe80::1/128", "fe80::%eth0/64", "fe80::/64"])
        assert index.lookup(ipaddress.ip_address("::ffff:10.0.0.7")) == ["::/0", "::ffff:10.0.0.0/120"]
        assert NetworkIndex().lookup(ipaddress.ip_address("10.0.0.7")) == []


def _pool_state(pool):
    """Every single and range with the sorted ids of the trackers holding it."""
    return ({str(k): sorted(v) for k, v in pool._singles.items()},
            {str(k): sorted(v) for k, v in pool._ranges.items()})


def _reference_state(ref):
    """``_pool_state`` of a ``NaiveIpPool``, whose entries also carry a month."""
    return ({str(k): sorted(e.tracker_id for e in v) for k, v in ref._singles.items()},
            {str(k): sorted(e.tracker_id for e in v) for k, v in ref._ranges.items()})


_OPS = st.lists(st.tuples(st.sampled_from(["range", "address"]), st.one_of(_NETS, _ADDRS),
                          st.sampled_from(["a", "b", "c"])), max_size=25)


class TestIpPoolAgainstReference:
    """``IpPool`` (range index, no rescan for a range its tracker already
    holds) against ``NaiveIpPool``, the pool with linear scans and a rescan on
    every ``add_range``."""

    @staticmethod
    def _apply(pools, kind, value, tracker):
        for pool in pools:
            if kind == "range":
                pool.add_range(value, tracker)
            else:
                pool.add_address(value.split("/")[0], tracker)

    @staticmethod
    def _assert_same(pool, ref, probes):
        assert pool.summary() == ref.summary()
        assert _pool_state(pool) == _reference_state(ref)
        for addr in probes:
            assert pool.owners(addr) == ref.owners(addr)
            assert all(pool.contains(addr, t) == ref.contains(addr, t) for t in "abc")

    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS, probes=st.lists(_ADDRS, max_size=10))
    def test_random_add_sequences(self, ops, probes):
        pool, ref = IpPool(), NaiveIpPool()
        for op in ops:
            self._apply((pool, ref), *op)
        self._assert_same(pool, ref, probes + ["not-an-ip"])

    @settings(max_examples=150, deadline=None)
    @given(declared=st.lists(st.tuples(_NETS, st.sampled_from("abc")), min_size=1, max_size=5),
           found=st.lists(st.lists(st.tuples(_ADDRS, st.sampled_from("abc")), max_size=6),
                          min_size=1, max_size=6),
           probes=st.lists(_ADDRS, max_size=10))
    def test_multi_month_backward_sequence(self, declared, found, probes):
        """As ``history.backward_iterate`` drives it: newest month first, every
        month's ``detect_publishers`` re-files the declared ranges, then the
        month's addresses are added."""
        pool, ref = IpPool(), NaiveIpPool()
        for addrs in found:
            for cidr, tracker in declared:
                self._apply((pool, ref), "range", cidr, tracker)
            for addr, tracker in addrs:
                self._apply((pool, ref), "address", addr, tracker)
            self._assert_same(pool, ref, probes + [a for a, _ in addrs])

    def test_readding_a_held_range_keeps_one_owner(self):
        pool = IpPool()
        pool.add_range("203.0.113.0/28", "trk")
        pool.add_address("198.51.100.7", "trk")
        pool.add_range("203.0.113.0/28", "trk")
        assert _pool_state(pool)[1] == {"203.0.113.0/28": ["trk"]}
        assert pool.summary() == {"trk": {"singles": 1, "ranges": 1}}


_DNS_HOSTS = ["a.shop.com", "A.Shop.com.", "a.shop.com.", "b.shop.com", "x.trk.net", "X.TRK.NET"]
_DNS_ANSWERS = ["x.trk.net", "X.trk.net.", "y.trk.net", "192.0.2.1", "2001:db8::1", "Edge.CDN.net."]
_dns_ops = st.lists(st.tuples(st.sampled_from(_DNS_HOSTS),
                              st.sampled_from(["CNAME", "A", "TXT"]),
                              st.sampled_from(_DNS_ANSWERS),
                              st.sampled_from([None, "2020-09", "2020-10"])), max_size=25)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _store_view(store):
    """Everything a store answers: its hostnames, and each host's CNAME
    target, addresses, membership and chain."""
    hosts = list(store.hostnames())
    return hosts, {h: (store.cname_target(h), store.a_records(h), h in store, store.chain(h))
                   for h in hosts + _DNS_HOSTS + ["absent.example"]}


def _run_ops(store, ops):
    handler = _Messages()
    logger = logging.getLogger("cnametrack.dnsgraph")
    logger.addHandler(handler)
    try:
        for op in ops:
            store.add(*op)
    finally:
        logger.removeHandler(handler)
    return _store_view(store), handler.messages


class TestDnsRecordStoreAgainstReference:
    """The store keeps the first CNAME of each (host, month) in a dict; the
    reference scans the host's records for it."""

    @settings(max_examples=300, deadline=None)
    @given(_dns_ops)
    def test_random_add_sequences(self, ops):
        assert _run_ops(DnsRecordStore(), ops) == _run_ops(NaiveDnsRecordStore(), ops)

    def test_first_cname_wins_and_differing_duplicate_warns(self):
        ops = [("a.shop.com", "CNAME", "x.trk.net", "2020-10"),
               ("A.SHOP.COM.", "CNAME", "X.TRK.NET.", "2020-10"),  # same answer: no warning
               ("a.shop.com", "CNAME", "y.trk.net", "2020-10"),  # differs: dropped, warned
               ("a.shop.com", "CNAME", "y.trk.net", "2020-09")]  # another month: kept
        (hosts, view), messages = _run_ops(DnsRecordStore(), ops)
        assert hosts == ["a.shop.com"]
        assert view["a.shop.com"][0] == "x.trk.net"
        assert view["a.shop.com"][3].hops == ("x.trk.net",)
        # the 2020-09 CNAME is a first for its month, so it draws no warning
        assert messages == ["multiple CNAME answers for a.shop.com (2020-10); keeping first"]

    @pytest.mark.parametrize("seed", range(20))
    def test_load_dns_equals_reference_adds(self, tmp_path, seed):
        """``load_dns`` stores each CNAME, A and AAAA answer (AAAA as "A") as
        the reference store does, whatever the case of the type."""
        rng = random.Random(seed)
        lines, ops = [], []
        for _ in range(rng.randint(0, 30)):
            name = rng.choice(_DNS_HOSTS)
            month = rng.choice([None, "2020-09", "2020-10"])
            answers = []
            for _ in range(rng.randint(0, 3)):
                rr_type = rng.choice(["CNAME", "cname", "A", "a", "AAAA", "TXT", "MX"])
                owner = rng.choice([None, rng.choice(_DNS_HOSTS)])
                answer = {"type": rr_type, "answer": rng.choice(_DNS_ANSWERS)}
                if owner is not None:
                    answer["name"] = owner
                answers.append(answer)
                if rr_type.upper() in ("CNAME", "A", "AAAA"):
                    ops.append((owner or name, "A" if rr_type.upper() == "AAAA" else rr_type.upper(),
                                answer["answer"], month))
            line = {"name": name, "answers": answers} if rng.random() < 0.5 else \
                {"name": name, "data": {"answers": answers}}
            if month is not None:
                line["month"] = month
            lines.append(line)
        path = tmp_path / "dns.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        reference = NaiveDnsRecordStore()
        for op in ops:
            reference.add(*op)
        assert _store_view(load_dns(path)) == _store_view(reference)
