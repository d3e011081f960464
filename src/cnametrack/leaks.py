"""Cookie-leak detection (header / POST body / URL channels) with setter
attribution, plus the transport-security audit."""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from urllib.parse import unquote

from .detect import PublisherDetection, TransactionRef, evidence_transactions, page_site
from .model import ContentClass, PageVisit, TrackerSignature, signatures_by_tracker, split_url
from .sitectx import CookieAttributes, PublicSuffixTable

log = logging.getLogger(__name__)

MIN_VALUE_LENGTH = 10
MULTI_SITE_THRESHOLD = 2


class SetterKind(enum.Enum):
    RESPONSE_HEADER = "response-header"
    SCRIPT = "script"
    UNKNOWN = "unknown"


class Channel(enum.Enum):
    COOKIE_HEADER = "cookie-header"
    POST_BODY = "post-body"
    URL_PARAM = "url-param"


class TransportKind(enum.Enum):
    INSECURE_ACTIVE_CONTENT = "insecure-active-content"
    ANALYTICS_OVER_HTTP = "analytics-over-http"
    NON_SECURE_COOKIE_OVER_HTTP = "non-secure-cookie-over-http"


@dataclass
class CookieRecord:
    name: str
    value: str
    set_on_host: str | None
    attributes: CookieAttributes | None
    setter: SetterKind
    setter_origin: str | None  # host of the Set-Cookie response / script URL
    site: str | None

    @property
    def is_session(self) -> bool:
        return self.attributes is None or self.attributes.is_session


@dataclass
class LeakFinding:
    site: str
    tracker_id: str
    channel: Channel
    cookie: CookieRecord
    carrier: TransactionRef
    matched_span: tuple[int, int]
    decoded: bool = False
    third_party_setter: bool = False
    active_exfiltration: bool = False

    def sort_key(self):
        return (self.site, self.channel.value, self.cookie.name,
                self.carrier.visit_id, self.carrier.index)


@dataclass
class TransportFinding:
    site: str
    kind: TransportKind
    tracker_id: str
    carrier: TransactionRef


def build_inventory(corpus: list[PageVisit], psl: PublicSuffixTable) -> list[CookieRecord]:
    """Attribute every cookie observed in any request to its setter.

    Order of attribution: exact name+value match against Set-Cookie responses
    (skipping responses whose own request already carried the cookie), then
    document.cookie assignments, else Unknown.
    """
    header_setters: dict[tuple[str, str], tuple[str, CookieAttributes]] = {}  # (n,v) -> (host, attrs)
    script_setters: dict[tuple[str, str], tuple[str, CookieAttributes, str]] = {}
    for visit in corpus:
        for txn in visit.transactions:
            carried = set(txn.request_cookies)
            for attrs in txn.set_cookies:
                key = (attrs.name, attrs.value)
                if key in carried:
                    continue  # response echoes a cookie its request already sent
                if key not in header_setters:
                    header_setters[key] = (txn.host, attrs)
        for jsc in visit.js_cookie_sets:
            key = (jsc.parsed.name, jsc.parsed.value)
            if key not in script_setters:
                script_setters[key] = (jsc.script_origin or "", jsc.parsed, visit.page_host)

    inventory: dict[tuple[str, str], CookieRecord] = {}
    for visit in corpus:
        for txn in visit.transactions:
            for name, value in txn.request_cookies:
                key = (name, value)
                if key in inventory:
                    continue
                if key in header_setters:
                    host, attrs = header_setters[key]
                    inventory[key] = CookieRecord(
                        name, value, host, attrs, SetterKind.RESPONSE_HEADER, host,
                        psl.etld_plus_one_or_none(host))
                elif key in script_setters:
                    origin, attrs, page_host = script_setters[key]
                    inventory[key] = CookieRecord(
                        name, value, page_host, attrs, SetterKind.SCRIPT, origin,
                        psl.etld_plus_one_or_none(page_host))
                else:
                    inventory[key] = CookieRecord(
                        name, value, None, None, SetterKind.UNKNOWN, None, None)
    return list(inventory.values())


def build_value_site_index(corpus: list[PageVisit], psl: PublicSuffixTable) -> dict[str, int]:
    """value -> distinct sites it is sent on, over request cookies."""
    sites: dict[str, set[str]] = {}
    for visit in corpus:
        site = page_site(visit, psl) or visit.page_host
        for txn in visit.transactions:
            for _name, value in txn.request_cookies:
                sites.setdefault(value, set()).add(site)
    return {v: len(s) for v, s in sites.items()}


def _site_unique_persistent(
    inventory: list[CookieRecord], value_site_index: dict[str, int]
) -> list[CookieRecord]:
    """The tracker-independent filters: persistent, long, site-unique."""
    out = []
    for rec in inventory:
        if rec.attributes is not None and rec.attributes.is_session:
            continue
        if len(rec.value) < MIN_VALUE_LENGTH:
            continue
        if value_site_index.get(rec.value, 0) >= MULTI_SITE_THRESHOLD:
            continue
        out.append(rec)
    return out


class TrackerScope:
    """One tracker, as its candidate filter and channel searches see it, each
    fact derived once: ``sigs``, every signature carrying its tracker id;
    ``detections``, its own; and its evidence transactions as (site, ref,
    txn, initiated by the tracker's own script)."""

    def __init__(self, corpus: list[PageVisit], detections: list[PublisherDetection],
                 sigs: list[TrackerSignature]):
        self.sigs = sigs
        self.detections = [d for d in detections if d.tracker_id == sigs[0].tracker_id]
        self._hosts = {ref.host for det in self.detections for ref in det.evidence}
        self.evidence = [(det.publisher_etld1, ref, txn,
                          any(self.owns(split_url(url)[0]) for url in txn.initiators))
                         for det, ref, _visit, txn in evidence_transactions(corpus, self.detections)]

    def owns(self, host: str | None) -> bool:
        """Whether ``host`` is the tracker's: seen in its evidence, or under
        one of its signatures' suffixes."""
        return bool(host) and (host in self._hosts or any(sig.host_matches(host) for sig in self.sigs))


def filter_candidates(persistent: list[CookieRecord], scope: TrackerScope) -> list[CookieRecord]:
    """Leak candidates for one tracker: the cookies of ``persistent``, an
    inventory already through the tracker-independent filters
    (``_site_unique_persistent``, applied once per run), not set by the
    tracker itself."""
    return [rec for rec in persistent if not scope.owns(rec.setter_origin)]


class _ValueIndex:
    """Leftmost occurrence of many values, found in one pass over a haystack.

    Values are bucketed on their first ``width`` characters, ``width`` being
    the shortest value's length (at least ``MIN_VALUE_LENGTH`` for filtered
    candidates).  A scan looks every ``width``-character window up, left to
    right, and confirms a hit with ``startswith``; a value's first confirmed
    position is the one ``str.find`` returns.
    """

    def __init__(self, values: list[str]):
        self.count = len(values)
        self.width = min(map(len, values), default=0)
        self.buckets: dict[str, list[tuple[int, str]]] = {}
        for pos, value in enumerate(values):
            self.buckets.setdefault(value[:self.width], []).append((pos, value))

    def _scan(self, haystack: str, found: dict[int, tuple[int, bool]], decoded: bool):
        get, width = self.buckets.get, self.width
        for i in range(len(haystack) - width + 1):
            bucket = get(haystack[i:i + width])
            if bucket:
                for pos, value in bucket:
                    if pos not in found and haystack.startswith(value, i):
                        found[pos] = (i, decoded)

    def search(self, haystack: str, decode: bool) -> list[tuple[int, int, bool]]:
        """(value position, start, decoded) per value found, in value order.

        A value missing from the raw haystack is looked for in its
        percent-decoded form when ``decode`` is set.
        """
        if not self.count:
            return []
        found: dict[int, tuple[int, bool]] = {}
        self._scan(haystack, found, False)
        if decode and len(found) < self.count:
            decoded_haystack = unquote(haystack)
            if decoded_haystack != haystack:
                self._scan(decoded_haystack, found, True)
        return sorted((pos, start, decoded) for pos, (start, decoded) in found.items())


def _find_leaks(channel: Channel, filtered: list[CookieRecord], tracker_id: str,
                scope: TrackerScope) -> list[LeakFinding]:
    """Findings of one channel for one tracker, sorted by ``sort_key``.

    Each carrier's hits are emitted in ``filtered`` order (Cookie-header order
    on the header channel), so ties in the sort keep a fixed order.
    """
    if channel is Channel.COOKIE_HEADER:
        by_pair = {(r.name, r.value): pos for pos, r in enumerate(filtered)}
    else:
        index = _ValueIndex([r.value for r in filtered])
    findings = []
    for site, ref, txn, active in scope.evidence:
        if channel is Channel.COOKIE_HEADER:
            header = "; ".join(f"{n}={v}" for n, v in txn.request_cookies)
            hits = [(by_pair[pair], header.find(pair[1]), False)
                    for pair in txn.request_cookies if pair in by_pair]
        elif channel is Channel.URL_PARAM:
            hits = index.search(txn.path_and_query, decode=True)
        else:
            if not txn.post_body:
                continue
            hits = index.search(txn.post_body, decode="form-urlencoded" in (txn.post_content_type or ""))
            if len(hits) < index.count and txn.post_body_truncated:
                log.warning("POST body truncated; leak search window exceeded for %s", ref.url)
        for pos, start, decoded in hits:
            rec = filtered[pos]
            findings.append(LeakFinding(
                site=site,
                tracker_id=tracker_id,
                channel=channel,
                cookie=rec,
                carrier=ref,
                matched_span=(start, start + len(rec.value)),
                decoded=decoded,
                third_party_setter=rec.site is not None and rec.site != site,
                active_exfiltration=active,
            ))
    findings.sort(key=LeakFinding.sort_key)
    return findings


# The channel searches read only ``filtered``, ``sig.tracker_id`` and
# ``scope``; ``corpus`` and ``detections``, what ``scope`` was built from,
# stay in their places for perfbench/tracer.py, which reads them by position.

def find_header_leaks(
    corpus: list[PageVisit],
    filtered: list[CookieRecord],
    detections: list[PublisherDetection],
    sig: TrackerSignature,
    scope: TrackerScope,
) -> list[LeakFinding]:
    """Filtered cookies present in a tracker transaction's Cookie header."""
    return _find_leaks(Channel.COOKIE_HEADER, filtered, sig.tracker_id, scope)


def find_post_leaks(
    corpus: list[PageVisit],
    filtered: list[CookieRecord],
    detections: list[PublisherDetection],
    sig: TrackerSignature,
    scope: TrackerScope,
) -> list[LeakFinding]:
    """Filtered cookie values found in tracker-bound POST bodies (and in the
    percent-decoded body of a form-urlencoded one)."""
    return _find_leaks(Channel.POST_BODY, filtered, sig.tracker_id, scope)


def find_url_leaks(
    corpus: list[PageVisit],
    filtered: list[CookieRecord],
    detections: list[PublisherDetection],
    sig: TrackerSignature,
    scope: TrackerScope,
) -> list[LeakFinding]:
    """Filtered cookie values in tracker request URLs (path+query only, raw
    or percent-decoded)."""
    return _find_leaks(Channel.URL_PARAM, filtered, sig.tracker_id, scope)


def transport_audit(
    corpus: list[PageVisit], detections: list[PublisherDetection]
) -> list[TransportFinding]:
    """Plain-HTTP tracker traffic on HTTPS pages."""
    findings = []
    for det, ref, visit, txn in evidence_transactions(corpus, detections):
        if visit.page_scheme != "https" or txn.scheme != "http":
            continue
        site, tracker_id = det.publisher_etld1, det.tracker_id
        findings.append(TransportFinding(site, TransportKind.ANALYTICS_OVER_HTTP, tracker_id, ref))
        if txn.content_type_class in (ContentClass.SCRIPT, ContentClass.HTML):
            findings.append(TransportFinding(site, TransportKind.INSECURE_ACTIVE_CONTENT, tracker_id, ref))
        if txn.request_cookies:
            findings.append(TransportFinding(site, TransportKind.NON_SECURE_COOKIE_OVER_HTTP, tracker_id, ref))
    findings.sort(key=lambda f: (f.site, f.kind.value, f.tracker_id, f.carrier.visit_id, f.carrier.index))
    return findings


@dataclass
class LeakAuditResult:
    inventory_size: int
    findings: list[LeakFinding]
    transport: list[TransportFinding]


def audit_leaks(
    corpus: list[PageVisit],
    detections: list[PublisherDetection],
    sigs: list[TrackerSignature],
    psl: PublicSuffixTable,
) -> LeakAuditResult:
    """Full three-channel leak audit plus transport audit for all trackers,
    each tracker id audited once over all the signatures carrying it."""
    inventory = build_inventory(corpus, psl)
    persistent = _site_unique_persistent(inventory, build_value_site_index(corpus, psl))
    findings: list[LeakFinding] = []
    for tracker_sigs in signatures_by_tracker(sigs).values():
        scope = TrackerScope(corpus, detections, tracker_sigs)
        filtered = filter_candidates(persistent, scope)
        # module globals, read per call: wrappers installed on the module see each stage
        for find in (find_header_leaks, find_post_leaks, find_url_leaks):
            findings.extend(find(corpus, filtered, scope.detections, tracker_sigs[0], scope))
    findings.sort(key=LeakFinding.sort_key)
    return LeakAuditResult(
        inventory_size=len(inventory),
        findings=findings,
        transport=transport_audit(corpus, detections),
    )
