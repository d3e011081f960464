"""Tracker detection: candidate discovery, feature extraction, signature
matching, and publisher detection with same-site/cross-site context."""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

from .dnsgraph import (
    CnameChain,
    DnsRecordStore,
    IpPool,
    uncloaked_target,
)
from .errors import InvalidHostname
from .model import HttpTransaction, PageVisit, TrackerSignature
from .sitectx import Origin, PublicSuffixTable, Relation, classify_relation, label_suffixes

log = logging.getLogger(__name__)

RESPONSE_SIZE_BUCKET = 100


class Context(enum.Enum):
    SAME_SITE = "same-site"
    CROSS_SITE = "cross-site"


class Mechanism(enum.Enum):
    CNAME = "cname"
    DIRECT_A_RECORD = "direct-a-record"


class Flag(enum.Enum):
    LIKELY_TRACKER = "likely-tracker"
    LIKELY_CDN = "likely-cdn"
    INCONCLUSIVE = "inconclusive"


@dataclass
class CandidateAggregate:
    """Per-target request statistics driving assisted detection."""

    target_etld1: str
    sites: set[str] = field(default_factory=set)
    hostnames: set[str] = field(default_factory=set)
    paths_per_site: dict[str, set[str]] = field(default_factory=dict)
    total_requests: int = 0
    requests_sending_cookie: int = 0
    responses_setting_cookie: int = 0
    response_size_buckets: set[int] = field(default_factory=set)

    @property
    def site_count(self) -> int:
        return len(self.sites)

    @property
    def hostname_count(self) -> int:
        return len(self.hostnames)

    def record(self, site: str, txn: HttpTransaction):
        self.sites.add(site)
        self.hostnames.add(txn.host)
        self.paths_per_site.setdefault(site, set()).add(txn.path_and_query)
        self.total_requests += 1
        if txn.request_cookies:
            self.requests_sending_cookie += 1
        if txn.set_cookies:
            self.responses_setting_cookie += 1
        self.response_size_buckets.add(txn.response_size // RESPONSE_SIZE_BUCKET)


@dataclass(frozen=True)
class FeatureVector:
    sites: int
    hostnames: int
    mean_unique_paths_per_site: float
    mean_requests_per_site: float
    pct_responses_setting_cookie: float
    pct_requests_sending_cookie: float
    bucket_count: int


# advisory cut-offs for the assisted-detection heuristic
TRACKER_MAX_BUCKETS = 5
TRACKER_MIN_SET_COOKIE_PCT = 50.0
TRACKER_MAX_REQUESTS_PER_SITE = 5.0
CDN_MIN_PATHS_PER_SITE = 5.0
CDN_MIN_BUCKETS = 10


@dataclass(frozen=True)
class TransactionRef:
    visit_id: str
    index: int
    url: str
    host: str


@dataclass
class PublisherDetection:
    publisher_etld1: str
    tracker_id: str
    context: Context
    evidence: list[TransactionRef]
    cloaking_mechanism: Mechanism

    def sort_key(self):
        return (self.publisher_etld1, self.tracker_id, self.context.value)


def _chain(dns: DnsRecordStore, host: str, warned: set[str]) -> CnameChain | None:
    """``dns.chain``, warning the first time a host in ``warned`` is skipped
    for a CNAME cycle; callers running several snapshots share one set so
    that a cycle is reported once per run, not once per snapshot."""
    chain = dns.chain(host)
    if chain is None and host not in warned:
        warned.add(host)
        log.warning("skipping host with CNAME cycle: %s", dns.cycle(host))
    return chain


class SignatureIndex:
    """Which signatures reach a host, and by which route: the one place the
    CNAME and IP routes are decided.

    Positions refer to ``sigs``, so iterating them sorted keeps signature
    order.  ``cname_positions`` maps chain hops, canonical as every
    ``DnsRecordStore`` and ``split_url`` give them, to the signatures
    carrying one of their label suffixes: a hop matches suffix ``s`` iff it
    equals ``s`` or ends with ``"." + s``.  ``address_positions`` memoizes,
    per address string, the signatures whose tracker ``pool`` holds it
    (declared ranges are in the pool, filed by ``IpPool.add_signatures``);
    the pool must not change while the index is in use.  Only an index given
    a pool looks addresses up.
    """

    def __init__(self, sigs: list[TrackerSignature], pool: IpPool | None = None):
        self.pool = pool
        self._by_suffix: dict[str, list[int]] = {}
        self._by_tracker: dict[str, list[int]] = {}
        for pos, sig in enumerate(sigs):
            for suffix in sig.cname_suffixes:
                self._by_suffix.setdefault(suffix, []).append(pos)
            self._by_tracker.setdefault(sig.tracker_id, []).append(pos)
        self._by_addr: dict[str, frozenset[int]] = {}

    def cname_positions(self, hops) -> frozenset[int]:
        by_suffix = self._by_suffix
        found: set[int] = set()
        for hop in hops:
            for suffix in label_suffixes(hop):
                found.update(by_suffix.get(suffix, ()))
        return frozenset(found)

    def address_positions(self, addr: str) -> frozenset[int]:
        found = self._by_addr.get(addr)
        if found is None:
            by_tracker = self._by_tracker
            found = self._by_addr[addr] = frozenset(
                pos for tracker_id in self.pool.owners(addr) for pos in by_tracker.get(tracker_id, ()))
        return found


def page_site(visit: PageVisit, psl: PublicSuffixTable) -> str | None:
    """eTLD+1 of the visit's page: the loader's value, else derived from the host."""
    return visit.site or psl.etld_plus_one_or_none(visit.page_host)


def _origin_or_none(url: str) -> Origin | None:
    try:
        return Origin.from_url(url)
    except (InvalidHostname, ValueError):
        return None


def classified_transactions(visit: PageVisit, psl: PublicSuffixTable,
                            origins: dict[tuple, Origin | None]):
    """Yield (txn, relation to the page) for each transaction of a visit.

    Yields nothing when the page URL has no http(s) origin, and skips
    transactions whose request URL has none.  Request origins are built once
    per (scheme, host, port) and kept in ``origins``, a dict the caller owns
    and passes for every visit of one scan.
    """
    page_origin = _origin_or_none(visit.page_url)
    if page_origin is None:
        return
    for txn in visit.transactions:
        key = (txn.scheme, txn.host, txn.port)
        try:
            target_origin = origins[key]
        except KeyError:
            target_origin = origins[key] = _origin_or_none(txn.request_url)
        if target_origin is not None:
            yield txn, classify_relation(page_origin, target_origin, psl)


def evidence_transactions(corpus: list[PageVisit], detections: list[PublisherDetection]):
    """Yield (det, ref, visit, txn) once per distinct (tracker, evidence
    transaction), in detection order.

    Refs to a visit missing from the corpus, or past the end of its
    transactions, are skipped.
    """
    by_visit = {v.visit_id: v for v in corpus}
    seen = set()
    for det in detections:
        for ref in det.evidence:
            key = (det.tracker_id, ref.visit_id, ref.index)
            if key in seen:
                continue
            seen.add(key)
            visit = by_visit.get(ref.visit_id)
            if visit is None or not 0 <= ref.index < len(visit.transactions):
                continue
            yield det, ref, visit, visit.transactions[ref.index]


def candidate_scan(
    corpus: list[PageVisit],
    dns: DnsRecordStore,
    psl: PublicSuffixTable,
    min_sites: int = 100,
) -> list[CandidateAggregate]:
    """Aggregate same-site (non-same-origin) requests whose host uncloaks to a
    different eTLD+1, grouped by the uncloaked target."""
    warned: set[str] = set()
    origins: dict[tuple, Origin | None] = {}
    aggregates: dict[str, CandidateAggregate] = {}
    for visit in corpus:
        site = page_site(visit, psl)
        if site is None:
            continue
        for txn, relation in classified_transactions(visit, psl, origins):
            if relation is not Relation.SAME_SITE:
                continue
            chain = _chain(dns, txn.host, warned)
            if chain is None:
                continue
            target = uncloaked_target(chain, psl)
            if target is None:
                continue
            agg = aggregates.setdefault(target, CandidateAggregate(target))
            agg.record(site, txn)
    result = [a for a in aggregates.values() if a.site_count >= min_sites]
    result.sort(key=lambda a: (-a.site_count, a.target_etld1))
    return result


def extract_features(agg: CandidateAggregate) -> FeatureVector:
    """Summarize a candidate aggregate into the assisted-detection features."""
    nsites = max(agg.site_count, 1)
    total = max(agg.total_requests, 1)
    return FeatureVector(
        sites=agg.site_count,
        hostnames=agg.hostname_count,
        mean_unique_paths_per_site=sum(len(p) for p in agg.paths_per_site.values()) / nsites,
        mean_requests_per_site=agg.total_requests / nsites,
        pct_responses_setting_cookie=100.0 * agg.responses_setting_cookie / total,
        pct_requests_sending_cookie=100.0 * agg.requests_sending_cookie / total,
        bucket_count=len(agg.response_size_buckets),
    )


def heuristic_flag(features: FeatureVector) -> Flag:
    """Advisory tracker/CDN call; never gates detection."""
    tracker_votes = 0
    cdn_votes = 0
    if features.bucket_count < TRACKER_MAX_BUCKETS:
        tracker_votes += 1
    if features.pct_responses_setting_cookie > TRACKER_MIN_SET_COOKIE_PCT:
        tracker_votes += 1
    if features.mean_requests_per_site < TRACKER_MAX_REQUESTS_PER_SITE:
        tracker_votes += 1
    if features.mean_unique_paths_per_site > CDN_MIN_PATHS_PER_SITE:
        cdn_votes += 1
    if features.bucket_count > CDN_MIN_BUCKETS:
        cdn_votes += 1
    if tracker_votes and cdn_votes:
        return Flag.INCONCLUSIVE
    if tracker_votes >= 2:
        return Flag.LIKELY_TRACKER
    if cdn_votes >= 1:
        return Flag.LIKELY_CDN
    return Flag.INCONCLUSIVE


def signature_match_route(txn: HttpTransaction, sig: TrackerSignature, by_cname: bool) -> Mechanism | None:
    """How a transaction matches a signature that ``SignatureIndex`` found
    reaching its host: by the CNAME route when ``by_cname`` (a chain hop
    carries one of its suffixes), else by the IP route.  None when the
    request path+query matches none of the path patterns."""
    if not sig.path_match(txn.path_and_query):
        return None
    return Mechanism.CNAME if by_cname else Mechanism.DIRECT_A_RECORD


def detect_publishers(
    corpus: list[PageVisit],
    dns: DnsRecordStore,
    sigs: list[TrackerSignature],
    pool: IpPool | None,
    psl: PublicSuffixTable,
    warned_cycles: set[str] | None = None,
) -> list[PublisherDetection]:
    """One detection per (publisher eTLD+1, tracker, context), deterministic order.

    A ``SignatureIndex`` decides, once per host, the signatures a chain hop
    reaches by the CNAME route and those whose tracker id the pool credits
    with a terminal address; a transaction's remote address adds to the
    latter.  Each transaction is then checked, with ``signature_match_route``
    and in signature order, against only those signatures.  Every
    signature's declared ranges are filed into ``pool`` (a fresh one when
    None) first, so a range counts for every signature of its tracker id.  A
    transaction is one evidence ref of a tracker however many of its
    signatures match it; the routes of all of them count for the mechanism.
    A host whose chain cycles is skipped, with one warning per host in
    ``warned_cycles``.
    """
    warned = set() if warned_cycles is None else warned_cycles
    pool = IpPool() if pool is None else pool
    pool.add_signatures(sigs)
    index = SignatureIndex(sigs, pool)
    # host -> (signatures its chain reaches by CNAME, by CNAME or terminal address, its eTLD+1)
    hosts: dict[str, tuple[frozenset[int], frozenset[int], str | None]] = {}
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
            facts = hosts.get(host)
            if facts is None:
                chain = _chain(dns, host, warned)
                by_cname = candidates = frozenset()
                if chain is not None:
                    by_cname = index.cname_positions(chain.hops)
                    candidates = by_cname.union(*map(index.address_positions, chain.terminal_ips))
                facts = hosts[host] = (by_cname, candidates, psl.etld_plus_one_or_none(host))
            by_cname, candidates, host_site = facts
            if txn.remote_ip:
                candidates = candidates | index.address_positions(txn.remote_ip)
            if not candidates:
                continue
            context = Context.SAME_SITE if host_site == site else Context.CROSS_SITE
            evidence_of: set[str] = set()  # the trackers this transaction is already evidence for
            for pos in sorted(candidates):
                sig = sigs[pos]
                route = signature_match_route(txn, sig, pos in by_cname)
                if route is None:
                    continue
                key = (site, sig.tracker_id, context)
                routes.setdefault(key, set()).add(route)
                if sig.tracker_id not in evidence_of:
                    evidence_of.add(sig.tracker_id)
                    grouped.setdefault(key, []).append(TransactionRef(visit.visit_id, idx, txn.request_url, host))
    detections = []
    for key in sorted(grouped, key=lambda k: (k[0], k[1], k[2].value)):
        site, tracker, context = key
        mech = Mechanism.CNAME if Mechanism.CNAME in routes[key] else Mechanism.DIRECT_A_RECORD
        evidence = sorted(grouped[key], key=lambda r: (r.visit_id, r.index))
        detections.append(PublisherDetection(site, tracker, context, evidence, mech))
    return detections
