"""Reference cookie-leak search: the per-candidate ``str.find`` scan.

This is the leak search as it stood before the single-pass search in
``cnametrack.leaks`` replaced it, kept verbatim as the oracle for the
differential test in tests/test_leaks.py.  It scans every haystack once per
candidate cookie, so it is quadratic; do not use it outside tests.
"""

from __future__ import annotations

import logging
from urllib.parse import unquote

from cnametrack.detect import PublisherDetection, evidence_transactions
from cnametrack.leaks import Channel, CookieRecord, LeakFinding
from cnametrack.model import HttpTransaction, PageVisit, TrackerSignature
from naivedetect import host_matches

log = logging.getLogger(__name__)


def _of_tracker(detections: list[PublisherDetection], tracker_id: str) -> list[PublisherDetection]:
    return [d for d in detections if d.tracker_id == tracker_id]


def _tracker_hosts(detections: list[PublisherDetection], tracker_id: str) -> set[str]:
    return {ref.host for det in _of_tracker(detections, tracker_id) for ref in det.evidence}


def _active_initiators(txn: HttpTransaction, sig: TrackerSignature, tracker_hosts: set[str]) -> bool:
    from urllib.parse import urlsplit

    for url in txn.initiators:
        host = (urlsplit(url).hostname or "").lower()
        if host and (host in tracker_hosts or host_matches(sig, host)):
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
                third_party_setter=rec.site is not None and rec.site != site,
                active_exfiltration=_active_initiators(txn, sig, tracker_hosts),
            ))
    findings.sort(key=LeakFinding.sort_key)
    return findings
