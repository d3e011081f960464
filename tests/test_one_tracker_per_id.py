"""Signatures that share a tracker id are one tracker.

A transaction is one evidence ref of a tracker however many of its
signatures match it; the leak audit runs once per tracker, and counts a
cookie set under any of its signatures' suffixes as the tracker's own; and
validation checks an undetected host's paths against every signature of its
tracker, so neither result depends on signature order.
"""

import pytest

from cnametrack.detect import detect_publishers
from cnametrack.dnsgraph import DnsRecordStore
from cnametrack.history import MonthlyDetection, cross_validate, external_trackers
from cnametrack.leaks import audit_leaks
from cnametrack.model import HttpTransaction, PageVisit, TrackerSignature
from cnametrack.sitectx import parse_set_cookie


def _cloaked_dns() -> DnsRecordStore:
    dns = DnsRecordStore()
    dns.add("m.shop.com", "CNAME", "x.trk.net")
    return dns


def test_two_signatures_of_one_tracker_give_one_evidence_ref(psl):
    sigs = [TrackerSignature("trk", cname_suffixes=("trk.net",), path_patterns=("/a/*",)),
            TrackerSignature("trk", cname_suffixes=("x.trk.net",), path_patterns=("/a/*",))]
    visit = PageVisit("https://www.shop.com/", "v1", site="shop.com",
                      transactions=[HttpTransaction("https://m.shop.com/a/1")])
    (det,) = detect_publishers([visit], _cloaked_dns(), sigs, None, psl)
    assert [(r.visit_id, r.index) for r in det.evidence] == [("v1", 0)]


@pytest.mark.parametrize("order", [1, -1], ids=["trk.net-first", "trk-cdn.com-first"])
def test_cookie_set_under_another_signature_of_the_tracker_is_its_own(order, psl):
    sigs = [TrackerSignature("trk", cname_suffixes=("trk.net",), path_patterns=("/a/*",)),
            TrackerSignature("trk", cname_suffixes=("trk-cdn.com",), path_patterns=("/a/*",))][::order]
    value = "0123456789abcdef"
    visit = PageVisit("https://www.shop.com/", "v1", site="shop.com", transactions=[
        HttpTransaction("https://sync.trk-cdn.com/s",
                        set_cookies=[parse_set_cookie(f"tid={value}; Max-Age=31536000")]),
        HttpTransaction(f"https://m.shop.com/a/1?u={value}", request_cookies=[("tid", value)]),
    ])
    detections = detect_publishers([visit], _cloaked_dns(), sigs, None, psl)
    assert [len(d.evidence) for d in detections] == [1]
    assert audit_leaks([visit], detections, sigs, psl).findings == []


@pytest.mark.parametrize("order", [1, -1], ids=["a-first", "b-first"])
def test_completeness_bucket_does_not_follow_signature_order(order):
    sigs = [TrackerSignature("trk", cname_suffixes=("trk.net",), path_patterns=("/a/*",)),
            TrackerSignature("trk", cname_suffixes=("trk.net",), path_patterns=("/b/*",))][::order]
    external = {"2020-10": _cloaked_dns()}
    monthly = [MonthlyDetection("2020-10", [], {})]  # the host went undetected
    report = cross_validate(monthly, external, external_trackers(external, sigs),
                            {"2020-10": {"m.shop.com": {"/b/1"}}}, sigs, None)
    assert report.completeness["ip-outside-pool"] == [
        {"month": "2020-10", "host": "m.shop.com", "tracker": "trk"}]
    assert sum(map(len, report.completeness.values())) == 1
