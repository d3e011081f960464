"""Leak-audit tests: planted leaks across all three channels, decoy
exclusion, setter attribution, the single-pass search against the reference
in tests/naiveleaks.py, and the transport audit."""

import logging
from urllib.parse import quote

from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
import naiveleaks
from cnametrack.detect import Context, Mechanism, PublisherDetection, TransactionRef, detect_publishers
from cnametrack.dnsgraph import DnsRecordStore
from cnametrack.leaks import (
    Channel,
    CookieRecord,
    SetterKind,
    TransportKind,
    _site_unique_persistent,
    audit_leaks,
    build_inventory,
    build_value_site_index,
    TrackerScope,
    filter_candidates,
    find_header_leaks,
    find_post_leaks,
    find_url_leaks,
    transport_audit,
)
from cnametrack.model import HttpTransaction, PageVisit, TrackerSignature


class TestInventory:
    def test_setter_attribution(self, leak_setup):
        corpus, dns, sig, detections, expected, psl = leak_setup
        inventory = build_inventory(corpus, psl)
        by_name = {r.name: r for r in inventory}
        # header-set first-party cookie
        assert by_name["_ga0"].setter is SetterKind.RESPONSE_HEADER
        assert by_name["_ga0"].set_on_host == "www.leak00.com"
        assert by_name["_ga0"].site == "leak00.com"
        # script-set cookie attributed to the top stack frame
        assert by_name["_fbp6"].setter is SetterKind.SCRIPT
        assert by_name["_fbp6"].setter_origin == "connect.social-widgets.com"
        assert not by_name["_ga0"].is_session
        assert by_name["sid14"].is_session

    def test_echoed_cookie_not_reattributed(self, psl):
        # a response that echoes the cookie its own request carried must not
        # be credited as the setter
        from cnametrack.model import HttpTransaction, PageVisit
        from cnametrack.sitectx import parse_set_cookie

        txn = HttpTransaction("https://a.example.com/x",
                              request_cookies=[("u", "val1234567890")],
                              set_cookies=[parse_set_cookie("u=val1234567890")])
        visit = PageVisit("https://a.example.com/", "v1", transactions=[txn])
        inv = build_inventory([visit], psl)
        assert inv[0].setter is SetterKind.UNKNOWN

    def test_value_site_index(self, leak_setup):
        corpus, *_ , psl = leak_setup
        index = build_value_site_index(corpus, psl)
        assert index["sharedconsentvalue01"] == 2
        assert index["ga1.2.leakvalue0000"] == 1


class TestFiltering:
    def test_filters_remove_decoys(self, leak_setup):
        corpus, dns, sig, detections, expected, psl = leak_setup
        persistent = _site_unique_persistent(build_inventory(corpus, psl),
                                             build_value_site_index(corpus, psl))
        filtered = filter_candidates(persistent, TrackerScope(corpus, detections, [sig]))
        names = {r.name for r in filtered}
        for n in range(12, 14):
            assert f"short{n}" not in names      # too short
        assert not any(name.startswith("sid") for name in names)   # session
        assert "consent" not in names            # multi-site value
        assert "etuid" not in names and "etjs" not in names  # tracker-set


class TestPlantedLeaks:
    def test_exact_findings(self, leak_setup):
        corpus, dns, sig, detections, expected, psl = leak_setup
        result = audit_leaks(corpus, detections, [sig], psl)
        got = {
            (f.site, f.cookie.name, f.channel.value) for f in result.findings
        }
        want = set()
        for channel, pairs in expected.items():
            want.update({(site, name, channel) for site, name in pairs})
        assert got == want
        assert len(result.findings) == 12

    def test_channels_and_flags(self, leak_setup):
        corpus, dns, sig, detections, expected, psl = leak_setup
        result = audit_leaks(corpus, detections, [sig], psl)
        by_channel = {}
        for f in result.findings:
            by_channel.setdefault(f.channel, []).append(f)
        assert len(by_channel[Channel.COOKIE_HEADER]) == 6
        assert len(by_channel[Channel.POST_BODY]) == 3
        assert len(by_channel[Channel.URL_PARAM]) == 3
        # the percent-encoded URL leak must carry the decoded flag
        decoded = [f for f in by_channel[Channel.URL_PARAM] if f.decoded]
        assert len(decoded) == 1 and " " in decoded[0].cookie.value
        # POST leaks come from requests initiated by tracker script
        assert all(f.active_exfiltration for f in by_channel[Channel.POST_BODY])
        # matched spans point at the value inside the carrier
        for f in by_channel[Channel.URL_PARAM]:
            if not f.decoded:
                txn = None
                for v in corpus:
                    if v.visit_id == f.carrier.visit_id:
                        txn = v.transactions[f.carrier.index]
                lo, hi = f.matched_span
                assert txn.path_and_query[lo:hi] == f.cookie.value

    def test_matched_span_header(self, leak_setup):
        corpus, dns, sig, detections, expected, psl = leak_setup
        result = audit_leaks(corpus, detections, [sig], psl)
        f = next(f for f in result.findings if f.channel is Channel.COOKIE_HEADER)
        by_visit = {v.visit_id: v for v in corpus}
        txn = by_visit[f.carrier.visit_id].transactions[f.carrier.index]
        header = "; ".join(f"{n}={v}" for n, v in txn.request_cookies)
        lo, hi = f.matched_span
        assert header[lo:hi] == f.cookie.value


def test_truncated_post_body_warns_once(caplog):
    url = "https://metrics.shop.com/ea/collect"
    txn = HttpTransaction(url, post_body="payload=" + "z" * 40, post_body_truncated=True)
    visit = PageVisit("https://www.shop.com/", "v1", site="shop.com", transactions=[txn])
    det = PublisherDetection("shop.com", "eulertrack", Context.SAME_SITE,
                             [TransactionRef("v1", 0, url, "metrics.shop.com")], Mechanism.CNAME)
    sig = TrackerSignature("eulertrack", cname_suffixes=("eulertrack.net",),
                           path_patterns=("/ea/*",))
    candidates = [CookieRecord(f"c{i}", f"value{i:08d}", "www.shop.com", None,
                               SetterKind.UNKNOWN, None, "shop.com")
                  for i in range(3)]
    with caplog.at_level(logging.WARNING, logger="cnametrack.leaks"):
        assert find_post_leaks([visit], candidates, [det], sig, TrackerScope([visit], [det], [sig])) == []
    assert [r.message for r in caplog.records].count(
        f"POST body truncated; leak search window exceeded for {url}") == 1
    assert len(caplog.records) == 1


# -- differential test: single-pass search against the per-candidate reference

DIFF_SIG = TrackerSignature("trk", cname_suffixes=("trk.net",), path_patterns=("/*",))
DIFF_INITIATORS = ("https://x.trk.net/s.js", "https://m.shop.com/c.js", "https://cdn.other.com/a.js")
SEARCHES = [
    (find_header_leaks, naiveleaks.find_header_leaks),
    (find_post_leaks, naiveleaks.find_post_leaks),
    (find_url_leaks, naiveleaks.find_url_leaks),
]


@st.composite
def leak_cases(draw):
    """Candidates over a tiny alphabet (so values share 10-character prefixes
    and overlap), and tracker transactions whose URLs and POST bodies are
    spliced from raw, percent-encoded and cut-off values and filler."""
    stems = draw(st.lists(st.text("ab %", min_size=10, max_size=11), min_size=1, max_size=3))
    values = draw(st.lists(st.builds(str.__add__, st.sampled_from(stems), st.text("ab%2\u00e9 ", max_size=3)),
                           min_size=1, max_size=6))
    names = st.sampled_from(["a", "b", "c"])  # one value may be drawn under two names
    filtered = [CookieRecord(draw(names), v, None, None, SetterKind.UNKNOWN, None,
                             draw(st.sampled_from([None, "shop.com", "other.com"])))
                for v in draw(st.lists(st.sampled_from(values), max_size=6))]
    value = st.sampled_from(values)
    piece = st.one_of(value, value.map(quote), st.builds(lambda v, k: v[:k], value, st.integers(1, 12)),
                      st.text("ab%2=&", max_size=5))
    text = st.lists(piece, max_size=5).map("".join)
    txns = []
    for _ in range(draw(st.integers(1, 4))):
        body = draw(st.none() | text)
        truncated = body is not None and draw(st.booleans())
        if truncated:
            body = body[:draw(st.integers(0, len(body)))]
        txns.append(HttpTransaction(
            "https://m.shop.com/" + draw(text),
            request_cookies=draw(st.lists(st.tuples(names, value | st.text("ab", max_size=12)), max_size=4)),
            post_body=body, post_body_truncated=truncated,
            post_content_type=draw(st.sampled_from([None, "application/json", "application/x-www-form-urlencoded",
                                                    "application/x-www-form-urlencoded; charset=utf-8"])),
            initiators=tuple(draw(st.lists(st.sampled_from(DIFF_INITIATORS), max_size=2))),
        ))
    visit = PageVisit("https://www.shop.com/", "v1", site="shop.com", transactions=txns)

    def refs():
        indices = st.integers(0, len(txns))  # one past the end: a stale ref
        return [TransactionRef("v1", i, "https://m.shop.com/", "m.shop.com")
                for i in draw(st.lists(indices, min_size=1, max_size=4))]

    detections = [PublisherDetection(site, tracker, Context.SAME_SITE, refs(), Mechanism.CNAME)
                  for site, tracker in (("shop.com", "trk"), ("other.com", "trk"), ("shop.com", "else"))]
    return [visit], filtered, detections


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _run_logged(fn, logger_name, *args):
    handler = _Messages()
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        return fn(*args), handler.messages
    finally:
        logger.removeHandler(handler)


@settings(max_examples=200, deadline=None)
@given(leak_cases())
def test_single_pass_search_equals_reference(case):
    corpus, filtered, detections = case
    scope = TrackerScope(corpus, detections, [DIFF_SIG])
    for fast, naive in SEARCHES:
        want = _run_logged(naive, "naiveleaks", corpus, filtered, detections, DIFF_SIG)
        assert _run_logged(fast, "cnametrack.leaks", corpus, filtered, detections, DIFF_SIG, scope) == want


class TestTransport:
    def _corpus(self, psl, scheme_page, scheme_trk, content_type="image/gif",
                with_cookie=False):
        records = [
            corpusgen.visit_record("t1", f"{scheme_page}://www.tsite.com/"),
            corpusgen.txn_record(
                "t1", f"{scheme_trk}://track.tsite.com/ea/collect",
                content_type=content_type,
                cookie_header="c=0123456789abc" if with_cookie else None,
            ),
        ]
        import json as _json

        from cnametrack.ingest import load_crawl_jsonl as _load
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".jsonl")
        with os.fdopen(fd, "w") as fh:
            for rec in records:
                fh.write(_json.dumps(rec) + "\n")
        corpus = _load(path, psl)
        os.unlink(path)
        store = DnsRecordStore()
        store.add("track.tsite.com", "CNAME", "x.eulertrack.net")
        store.add("x.eulertrack.net", "A", "203.0.113.20")
        sig = TrackerSignature("eulertrack", cname_suffixes=("eulertrack.net",),
                               path_patterns=("/ea/*",))
        detections = detect_publishers(corpus, store, [sig], None, psl)
        return corpus, detections

    def test_http_tracker_on_https_page(self, psl):
        corpus, detections = self._corpus(psl, "https", "http")
        kinds = {t.kind for t in transport_audit(corpus, detections)}
        assert kinds == {TransportKind.ANALYTICS_OVER_HTTP}

    def test_active_content_flagged(self, psl):
        corpus, detections = self._corpus(psl, "https", "http",
                                          content_type="application/javascript")
        kinds = {t.kind for t in transport_audit(corpus, detections)}
        assert TransportKind.INSECURE_ACTIVE_CONTENT in kinds

    def test_cookie_over_http_flagged(self, psl):
        corpus, detections = self._corpus(psl, "https", "http", with_cookie=True)
        kinds = {t.kind for t in transport_audit(corpus, detections)}
        assert TransportKind.NON_SECURE_COOKIE_OVER_HTTP in kinds

    def test_https_tracker_clean(self, psl):
        corpus, detections = self._corpus(psl, "https", "https")
        assert transport_audit(corpus, detections) == []
