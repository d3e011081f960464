"""Cookie-leak detection (header / POST body / URL channels) with setter
attribution, plus the transport-security audit."""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from urllib.parse import unquote

from .detect import PublisherDetection, TransactionRef, evidence_transactions, page_site
from .model import ContentClass, HttpTransaction, PageVisit, TrackerSignature
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
    setter_stack: tuple[str, ...]
    site: str | None
    first_seen_visit: str

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
    initiators: tuple[str, ...] = ()
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
    header_setters: dict[tuple[str, str], tuple[str, str]] = {}  # (n,v) -> (host, attrs key)
    header_attrs: dict[tuple[str, str], CookieAttributes] = {}
    script_setters: dict[tuple[str, str], tuple[str, tuple[str, ...], CookieAttributes, str]] = {}
    for visit in corpus:
        for txn in visit.transactions:
            carried = set(txn.request_cookies)
            for attrs in txn.set_cookies:
                key = (attrs.name, attrs.value)
                if key in carried:
                    continue  # response echoes a cookie its request already sent
                if key not in header_setters:
                    header_setters[key] = (txn.host, visit.visit_id)
                    header_attrs[key] = attrs
        for jsc in visit.js_cookie_sets:
            key = (jsc.parsed.name, jsc.parsed.value)
            if key not in script_setters:
                script_setters[key] = (
                    jsc.script_origin or "",
                    jsc.stack,
                    jsc.parsed,
                    visit.page_host,
                )

    inventory: dict[tuple[str, str], CookieRecord] = {}
    for visit in corpus:
        for txn in visit.transactions:
            for name, value in txn.request_cookies:
                key = (name, value)
                if key in inventory:
                    continue
                if key in header_setters:
                    host, _vid = header_setters[key]
                    inventory[key] = CookieRecord(
                        name, value, host, header_attrs[key],
                        SetterKind.RESPONSE_HEADER, host, (),
                        psl.etld_plus_one_or_none(host), visit.visit_id,
                    )
                elif key in script_setters:
                    origin, stack, attrs, page_host = script_setters[key]
                    inventory[key] = CookieRecord(
                        name, value, page_host, attrs,
                        SetterKind.SCRIPT, origin, stack,
                        psl.etld_plus_one_or_none(page_host), visit.visit_id,
                    )
                else:
                    inventory[key] = CookieRecord(
                        name, value, None, None,
                        SetterKind.UNKNOWN, None, (),
                        None, visit.visit_id,
                    )
    return list(inventory.values())


def build_value_site_index(corpus: list[PageVisit], psl: PublicSuffixTable) -> dict[str, tuple[int, int]]:
    """value -> (distinct sites, distinct visits) over sent request cookies."""
    sites: dict[str, set[str]] = {}
    visits: dict[str, set[str]] = {}
    for visit in corpus:
        site = page_site(visit, psl) or visit.page_host
        for txn in visit.transactions:
            for _name, value in txn.request_cookies:
                sites.setdefault(value, set()).add(site)
                visits.setdefault(value, set()).add(visit.visit_id)
    return {v: (len(s), len(visits[v])) for v, s in sites.items()}


def _of_tracker(detections: list[PublisherDetection], tracker_id: str) -> list[PublisherDetection]:
    return [d for d in detections if d.tracker_id == tracker_id]


def _tracker_hosts(detections: list[PublisherDetection], tracker_id: str) -> set[str]:
    return {ref.host for det in _of_tracker(detections, tracker_id) for ref in det.evidence}


def _is_tracker_setter(record: CookieRecord, sig: TrackerSignature, tracker_hosts: set[str]) -> bool:
    origin = record.setter_origin
    if not origin:
        return False
    return origin in tracker_hosts or sig.host_matches(origin)


def filter_candidates(
    inventory: list[CookieRecord],
    value_site_index: dict[str, tuple[int, int]],
    sig: TrackerSignature,
    detections: list[PublisherDetection],
) -> list[CookieRecord]:
    """Leak candidates for one tracker: persistent, long, site-unique cookies
    not set by the tracker itself."""
    tracker_hosts = _tracker_hosts(detections, sig.tracker_id)
    out = []
    for rec in inventory:
        if rec.attributes is not None and rec.attributes.is_session:
            continue
        if len(rec.value) < MIN_VALUE_LENGTH:
            continue
        site_count, _visit_count = value_site_index.get(rec.value, (0, 0))
        if site_count >= MULTI_SITE_THRESHOLD:
            continue
        if _is_tracker_setter(rec, sig, tracker_hosts):
            continue
        out.append(rec)
    return out


def _active_initiators(txn: HttpTransaction, sig: TrackerSignature, tracker_hosts: set[str]) -> bool:
    from urllib.parse import urlsplit

    for url in txn.initiators:
        host = (urlsplit(url).hostname or "").lower()
        if host and (host in tracker_hosts or sig.host_matches(host)):
            return True
    return False


def find_header_leaks(
    corpus: list[PageVisit],
    filtered: list[CookieRecord],
    detections: list[PublisherDetection],
    sig: TrackerSignature,
) -> list[LeakFinding]:
    """Filtered cookies present in a tracker transaction's Cookie header."""
    findings = []
    tracker_hosts = _tracker_hosts(detections, sig.tracker_id)
    by_value = {(r.name, r.value): r for r in filtered}
    for det, ref, _visit, txn in evidence_transactions(corpus, _of_tracker(detections, sig.tracker_id)):
        site = det.publisher_etld1
        header = "; ".join(f"{n}={v}" for n, v in txn.request_cookies)
        for name, value in txn.request_cookies:
            rec = by_value.get((name, value))
            if rec is None:
                continue
            start = header.find(value)
            findings.append(LeakFinding(
                site=site,
                tracker_id=sig.tracker_id,
                channel=Channel.COOKIE_HEADER,
                cookie=rec,
                carrier=ref,
                matched_span=(start, start + len(value)),
                initiators=txn.initiators,
                third_party_setter=rec.site is not None and rec.site != site,
                active_exfiltration=_active_initiators(txn, sig, tracker_hosts),
            ))
    findings.sort(key=LeakFinding.sort_key)
    return findings


def find_post_leaks(
    corpus: list[PageVisit],
    filtered: list[CookieRecord],
    detections: list[PublisherDetection],
    sig: TrackerSignature,
) -> list[LeakFinding]:
    """Filtered cookie values found in tracker-bound POST bodies."""
    findings = []
    tracker_hosts = _tracker_hosts(detections, sig.tracker_id)
    for det, ref, _visit, txn in evidence_transactions(corpus, _of_tracker(detections, sig.tracker_id)):
        site = det.publisher_etld1
        body = txn.post_body
        if not body:
            continue
        form_encoded = "form-urlencoded" in (txn.post_content_type or "")
        decoded_body = unquote(body) if form_encoded else None
        missed = False
        for rec in filtered:
            start = body.find(rec.value)
            decoded = False
            if start < 0 and decoded_body is not None:
                start = decoded_body.find(rec.value)
                decoded = True
            if start < 0:
                missed = True
                continue
            findings.append(LeakFinding(
                site=site,
                tracker_id=sig.tracker_id,
                channel=Channel.POST_BODY,
                cookie=rec,
                carrier=ref,
                matched_span=(start, start + len(rec.value)),
                decoded=decoded,
                initiators=txn.initiators,
                third_party_setter=rec.site is not None and rec.site != site,
                active_exfiltration=_active_initiators(txn, sig, tracker_hosts),
            ))
        if missed and txn.post_body_truncated:
            log.warning("POST body truncated; leak search window exceeded for %s", ref.url)
    findings.sort(key=LeakFinding.sort_key)
    return findings


def find_url_leaks(
    corpus: list[PageVisit],
    filtered: list[CookieRecord],
    detections: list[PublisherDetection],
    sig: TrackerSignature,
) -> list[LeakFinding]:
    """Filtered cookie values in tracker request URLs (path+query only)."""
    findings = []
    tracker_hosts = _tracker_hosts(detections, sig.tracker_id)
    for det, ref, _visit, txn in evidence_transactions(corpus, _of_tracker(detections, sig.tracker_id)):
        site = det.publisher_etld1
        haystack = txn.path_and_query
        decoded_haystack = unquote(haystack)
        for rec in filtered:
            start = haystack.find(rec.value)
            decoded = False
            if start < 0:
                start = decoded_haystack.find(rec.value)
                decoded = True
            if start < 0:
                continue
            findings.append(LeakFinding(
                site=site,
                tracker_id=sig.tracker_id,
                channel=Channel.URL_PARAM,
                cookie=rec,
                carrier=ref,
                matched_span=(start, start + len(rec.value)),
                decoded=decoded,
                initiators=txn.initiators,
                third_party_setter=rec.site is not None and rec.site != site,
                active_exfiltration=_active_initiators(txn, sig, tracker_hosts),
            ))
    findings.sort(key=LeakFinding.sort_key)
    return findings


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
    """Full three-channel leak audit plus transport audit for all trackers."""
    inventory = build_inventory(corpus, psl)
    index = build_value_site_index(corpus, psl)
    findings: list[LeakFinding] = []
    for sig in sigs:
        filtered = filter_candidates(inventory, index, sig, detections)
        findings.extend(find_header_leaks(corpus, filtered, detections, sig))
        findings.extend(find_post_leaks(corpus, filtered, detections, sig))
        findings.extend(find_url_leaks(corpus, filtered, detections, sig))
    findings.sort(key=LeakFinding.sort_key)
    return LeakAuditResult(
        inventory_size=len(inventory),
        findings=findings,
        transport=transport_audit(corpus, detections),
    )
