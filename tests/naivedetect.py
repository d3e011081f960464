"""Reference signature matching: every transaction against every signature.

This is ``signature_match_route`` and the ``detect_publishers`` loop,
history's ``_external_tracker_chain`` and ``TrackerSignature.host_matches``
as they stood before the signature index in ``cnametrack.detect`` replaced
the scans and became the one rule for which signatures reach a host
(``host_matches`` is also the leak references' ownership scan),
``classified_transactions`` as it stood before request origins were
memoized, and ``ChainCache`` as it stood before chains were memoized in
``DnsRecordStore``, kept as the oracles for the differential tests in
tests/test_detectindex.py.  The IP route
follows the per-tracker rule: a declared range counts for every signature
sharing its tracker id.  The oracle finds such ranges by parsing the
``cidr_ranges`` of every signature with that id, and reads the pool it is
given without adding to it.  Detection makes one route call per transaction
and signature; do not use it outside tests.
"""

from __future__ import annotations

import ipaddress
import logging
from fnmatch import fnmatchcase

from cnametrack.detect import (
    Context,
    Mechanism,
    PublisherDetection,
    TransactionRef,
    page_site,
)
from cnametrack.dnsgraph import CnameChain, DnsRecordStore, IpPool, resolve_chain
from cnametrack.errors import CnameCycle, InvalidHostname
from cnametrack.model import HttpTransaction, PageVisit, TrackerSignature
from cnametrack.sitectx import Origin, PublicSuffixTable, canonical_host, classify_relation

log = logging.getLogger("cnametrack.detect")  # where ChainCache warned


class ChainCache:
    """Memoized chain resolution over one immutable DNS snapshot.

    A host whose chain cycles resolves to None, with one warning per host in
    ``warned``; callers running several snapshots share one set so that a
    cycle is reported once per run, not once per snapshot.
    """

    def __init__(self, store: DnsRecordStore, max_depth: int = 10, warned: set[str] | None = None):
        self.store = store
        self.max_depth = max_depth
        self._warned = set() if warned is None else warned
        self._cache: dict[str, CnameChain | None] = {}

    def get(self, host: str) -> CnameChain | None:
        host = host.lower().rstrip(".")
        if host not in self._cache:
            try:
                self._cache[host] = resolve_chain(host, self.store, self.max_depth)
            except CnameCycle as exc:
                if host not in self._warned:
                    self._warned.add(host)
                    log.warning("skipping host with CNAME cycle: %s", exc)
                self._cache[host] = None
        return self._cache[host]


def host_matches(sig: TrackerSignature, host: str) -> bool:
    """Whether ``host`` equals one of the signature's suffixes or ends with
    ``"." + suffix``."""
    host = canonical_host(host)
    return any(host == s or host.endswith("." + s) for s in sig.cname_suffixes)


def declared_networks(sig: TrackerSignature, sigs: list[TrackerSignature]) -> list:
    """The parsed ``cidr_ranges`` of every signature sharing ``sig``'s tracker id."""
    return [ipaddress.ip_network(cidr, strict=False)
            for other in sigs if other.tracker_id == sig.tracker_id for cidr in other.cidr_ranges]


def signature_match_route(
    txn: HttpTransaction,
    chain: CnameChain | None,
    sig: TrackerSignature,
    sigs: list[TrackerSignature],
    pool: IpPool | None = None,
) -> Mechanism | None:
    """How (if at all) a transaction matches a signature.

    CNAME route: any chain hop carries one of the signature's host suffixes.
    IP route: the remote or terminal address sits in the declared ranges of
    some signature in ``sigs`` with the same tracker id, or in the
    accumulated pool for that tracker.  Either way the request path+query
    must match one of the path patterns.
    """
    if not any(fnmatchcase(txn.path_and_query, pat) for pat in sig.path_patterns):
        return None
    if chain is not None and any(host_matches(sig, hop) for hop in chain.hops):
        return Mechanism.CNAME
    candidates = list(chain.terminal_ips) if chain is not None else []
    if txn.remote_ip:
        candidates.append(txn.remote_ip)
    for addr in candidates:
        try:
            ip = ipaddress.ip_address(addr)
        except ValueError:
            continue
        if any(ip in net for net in declared_networks(sig, sigs)):
            return Mechanism.DIRECT_A_RECORD
        if pool is not None and pool.contains(addr, sig.tracker_id):
            return Mechanism.DIRECT_A_RECORD
    return None


def detect_publishers(
    corpus: list[PageVisit],
    dns: DnsRecordStore,
    sigs: list[TrackerSignature],
    pool: IpPool | None,
    psl: PublicSuffixTable,
    max_depth: int = 10,
) -> list[PublisherDetection]:
    """One detection per (publisher eTLD+1, tracker, context), deterministic
    order, with one evidence ref per (tracker id, transaction) however many
    of the tracker's signatures match."""
    chains = ChainCache(dns, max_depth)
    grouped: dict[tuple[str, str, Context], list[TransactionRef]] = {}
    routes: dict[tuple[str, str, Context], set[Mechanism]] = {}
    for visit in corpus:
        site = page_site(visit, psl)
        if site is None:
            continue
        for idx, txn in enumerate(visit.transactions):
            host = txn.host
            if not host:
                continue
            chain = chains.get(host)
            context = Context.SAME_SITE if psl.etld_plus_one_or_none(host) == site else Context.CROSS_SITE
            matched: dict[str, set[Mechanism]] = {}  # tracker id -> routes of its signatures
            for sig in sigs:
                route = signature_match_route(txn, chain, sig, sigs, pool)
                if route is not None:
                    matched.setdefault(sig.tracker_id, set()).add(route)
            for tracker_id, found in matched.items():
                key = (site, tracker_id, context)
                grouped.setdefault(key, []).append(
                    TransactionRef(visit.visit_id, idx, txn.request_url, host))
                routes.setdefault(key, set()).update(found)
    detections = []
    for key in sorted(grouped, key=lambda k: (k[0], k[1], k[2].value)):
        site, tracker, context = key
        mech = Mechanism.CNAME if Mechanism.CNAME in routes[key] else Mechanism.DIRECT_A_RECORD
        evidence = sorted(grouped[key], key=lambda r: (r.visit_id, r.index))
        detections.append(PublisherDetection(site, tracker, context, evidence, mech))
    return detections


def _external_tracker_chain(host, store, sigs, max_depth=10):
    """Signature whose suffix the host's external chain reaches, if any."""
    try:
        chain = resolve_chain(host, store, max_depth)
    except CnameCycle:
        return None, None
    for sig in sigs:
        if any(host_matches(sig, hop) for hop in chain.hops):
            return sig, chain
    return None, chain


def classified_transactions(visit: PageVisit, psl: PublicSuffixTable):
    """Yield (txn, relation to the page) for each transaction of a visit.

    Yields nothing when the page URL has no http(s) origin, and skips
    transactions whose request URL has none.
    """
    try:
        page_origin = Origin.from_url(visit.page_url)
    except (InvalidHostname, ValueError):
        return
    for txn in visit.transactions:
        try:
            target_origin = Origin.from_url(txn.request_url)
        except (InvalidHostname, ValueError):
            continue
        yield txn, classify_relation(page_origin, target_origin, psl)
