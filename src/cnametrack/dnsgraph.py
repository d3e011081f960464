"""DNS snapshot store, CNAME chain resolution, and tracker IP pools.

Every stage resolves a host through ``DnsRecordStore.chain``: once per
snapshot and host, with None for a cycle.  The chain-depth cap belongs to
the snapshot, set when it is built or loaded, so no stage takes one.
``resolve_chain`` is the unmemoized resolution behind it.

Addresses are found in networks through a ``NetworkIndex``: one table per
(IP version, prefix length) maps each network address, as an integer, to
what is filed under it, so a lookup masks the address once per prefix
length present and probes one dict, instead of testing every network.
"""

from __future__ import annotations

import ipaddress
import logging
from dataclasses import dataclass
from functools import cache

from .errors import CnameCycle, CnametrackError, InvalidCidr
from .model import _network
from .sitectx import PublicSuffixTable, canonical_host

log = logging.getLogger(__name__)

DEFAULT_MAX_DEPTH = 10


class DnsRecordStore:
    """Hostname -> record set; immutable after load.  ``add`` and each lookup
    apply ``canonical_host`` to a name, so keys, CNAME answers and hops are canonical.

    Records are kept as ``(rr_type, answer)`` tuples in the order they were
    added.  The first CNAME answer of each (host, month) is kept in a dict
    per month, so a later CNAME for the same pair is dropped without a scan,
    with a warning when it differs.  Chains are resolved at most
    ``max_depth`` (at least 1) hops deep and memoized per host; ``add`` clears the memo.
    """

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH):
        if max_depth < 1:
            raise CnametrackError(f"max_depth must be at least 1, not {max_depth}")
        self.max_depth = max_depth
        self._records: dict[str, list[tuple[str, str]]] = {}
        self._first_cname: dict[str | None, dict[str, str]] = {}
        self._chains: dict[str, CnameChain | CnameCycle] = {}

    def add(self, host: str, rr_type: str, answer: str, month: str | None = None):
        self._chains.clear()
        host = canonical_host(host)
        recs = self._records.setdefault(host, [])
        if rr_type == "CNAME":
            answer = canonical_host(answer)
            firsts = self._first_cname.get(month)
            if firsts is None:
                firsts = self._first_cname[month] = {}
            first = firsts.get(host)
            if first is not None:
                if first != answer:
                    log.warning("multiple CNAME answers for %s (%s); keeping first", host, month)
                return
            firsts[host] = answer
        recs.append((rr_type, answer))

    def __contains__(self, host: str) -> bool:
        return canonical_host(host) in self._records

    def cname_target(self, host: str) -> str | None:
        for rr_type, answer in self._records.get(canonical_host(host), ()):
            if rr_type == "CNAME":
                return answer
        return None

    def a_records(self, host: str) -> list[str]:
        return [answer for rr_type, answer in self._records.get(canonical_host(host), ())
                if rr_type == "A"]

    def hostnames(self):
        return self._records.keys()

    def chain(self, host: str) -> CnameChain | None:
        """The host's ``resolve_chain``, or None when it cycles (see ``cycle``)."""
        host = canonical_host(host)
        found = self._chains.get(host)
        if found is None:
            try:
                found = resolve_chain(host, self, self.max_depth)
            except CnameCycle as exc:
                found = exc.with_traceback(None)  # a traceback would pin the caller's frames
            self._chains[host] = found
        return None if isinstance(found, CnameCycle) else found

    def cycle(self, host: str) -> CnameCycle | None:
        """The error behind a None ``chain``, else None."""
        return None if self.chain(host) else self._chains[canonical_host(host)]


@dataclass(frozen=True)
class CnameChain:
    """Resolved chain from origin_host through CNAME hops to terminal addresses."""

    origin_host: str
    hops: tuple[str, ...]
    terminal_ips: tuple[str, ...]
    truncated: bool = False

    @property
    def last_hop(self) -> str | None:
        return self.hops[-1] if self.hops else None


def resolve_chain(host: str, store: DnsRecordStore, max_depth: int = DEFAULT_MAX_DEPTH) -> CnameChain:
    """Follow CNAME records until an A record set, a missing record, or the depth cap.

    Raises CnameCycle on a revisited hostname; depth-capped chains come back
    with truncated=True rather than an error.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    host = canonical_host(host)
    current = host
    hops: list[str] = []
    seen = {host}
    while True:
        target = store.cname_target(current)
        if target is None:
            ips = store.a_records(current)
            truncated = not ips and current not in store
            return CnameChain(host, tuple(hops), tuple(ips), truncated)
        if len(hops) >= max_depth:
            return CnameChain(host, tuple(hops), (), truncated=True)
        if target in seen:
            raise CnameCycle(target, [host] + hops + [target])
        seen.add(target)
        hops.append(target)
        current = target


def uncloaked_target(chain: CnameChain, psl: PublicSuffixTable) -> str | None:
    """eTLD+1 of the last hop when it differs from the origin host's site."""
    if not chain.hops:
        return None
    origin_site = psl.etld_plus_one_or_none(chain.origin_host)
    target_site = psl.etld_plus_one_or_none(chain.last_hop)
    if target_site is None or target_site == origin_site:
        return None
    return target_site


class NetworkIndex:
    """Values filed under IP networks, found by the addresses they hold.

    ``lookup(ip)`` gives exactly the values of the networks ``net`` with
    ``ip in net``: same version, and equal under the network's mask (host
    bits of ``strict=False`` networks are already cleared; IPv6 scope ids
    take no part).
    """

    def __init__(self):
        # version -> netmask (one per prefix length) -> network address -> values
        self._tables: dict[int, dict[int, dict[int, list]]] = {4: {}, 6: {}}

    def add(self, net: ipaddress.IPv4Network | ipaddress.IPv6Network, value):
        table = self._tables[net.version].setdefault(int(net.netmask), {})
        table.setdefault(int(net.network_address), []).append(value)

    def lookup(self, ip: ipaddress.IPv4Address | ipaddress.IPv6Address) -> list:
        n = int(ip)
        return [value for mask, table in self._tables[ip.version].items()
                for value in table.get(n & mask, ())]


class IpPool:
    """Tracker address ownership: single IPs plus CIDR ranges, each with the
    set of tracker ids that hold it.  It is the one table the IP route reads,
    through ``owners`` as ``SignatureIndex.address_positions`` asks it:
    ``add_signatures`` files every signature's declared ranges under its
    tracker id, and ``history`` adds the addresses confirmed tracking hosts
    resolve to, for every tracker a host is confirmed for.  It lives for a
    whole run, so it also parses each address string once for every stage
    and month."""

    def __init__(self):
        self._singles: dict[ipaddress._BaseAddress, set[str]] = {}
        self._ranges: dict[ipaddress._BaseNetwork, set[str]] = {}
        self._range_index = NetworkIndex()  # each range's id set, by network
        self.address = cache(ipaddress.ip_address)  # a bad address raises its ValueError each time

    def add_range(self, cidr: str, tracker_id: str):
        try:
            net = _network(cidr)
        except ValueError as exc:
            raise InvalidCidr(str(exc)) from None
        self._add_network(net, tracker_id)

    def add_signatures(self, sigs):
        """File each signature's declared ``networks`` under its tracker id,
        so that signatures sharing a tracker id share their ranges."""
        for sig in sigs:
            for net in sig.networks:
                self._add_network(net, sig.tracker_id)

    def _add_network(self, net: ipaddress.IPv4Network | ipaddress.IPv6Network, tracker_id: str):
        ids = self._ranges.get(net)
        if ids is None:
            ids = self._ranges[net] = set()
            self._range_index.add(net, ids)
        if tracker_id in ids:  # by the invariant below, no single of this tracker is in the range
            return
        ids.add(tracker_id)
        # keep the no-single-covered-by-own-range invariant
        for addr in [a for a in self._singles if a in net]:
            owners = self._singles[addr]
            owners.discard(tracker_id)
            if not owners:
                del self._singles[addr]

    def add_address(self, addr: str, tracker_id: str):
        ip = self.address(addr)
        for ids in self._range_index.lookup(ip):
            if tracker_id in ids:
                return  # already covered by this tracker's range
        self._singles.setdefault(ip, set()).add(tracker_id)

    def owners(self, addr: str) -> set[str]:
        """Tracker ids holding an address, as a single or by range; none when
        the address does not parse."""
        try:
            ip = self.address(addr)
        except ValueError:
            return set()
        hits = set(self._singles.get(ip, ()))
        for ids in self._range_index.lookup(ip):
            hits |= ids
        return hits

    def contains(self, addr: str, tracker_id: str) -> bool:
        return tracker_id in self.owners(addr)

    def summary(self) -> dict:
        """Deterministic snapshot for reports: per-tracker single/range counts."""
        per: dict[str, dict[str, int]] = {}
        for kind, held in (("singles", self._singles), ("ranges", self._ranges)):
            for ids in held.values():
                for tracker_id in ids:
                    per.setdefault(tracker_id, {"singles": 0, "ranges": 0})[kind] += 1
        return dict(sorted(per.items()))


def accumulate_ips(confirmed: set[tuple[str, str]], store: DnsRecordStore, pool: IpPool) -> IpPool:
    """Fold terminal addresses of confirmed tracking hosts into the pool.

    ``confirmed`` holds (hostname, tracker id) pairs, hosts whose
    transactions already matched that tracker's signature; a host confirmed
    for several trackers credits its addresses to each.  A host whose chain
    cycles in this snapshot adds nothing.  Declared ranges are not added
    here: ``detect_publishers`` files them with ``IpPool.add_signatures``.
    """
    for host, tracker_id in sorted(confirmed):
        chain = store.chain(host)
        for ip in chain.terminal_ips if chain is not None else ():
            pool.add_address(ip, tracker_id)
    return pool
