"""Loaders for all input corpora: capture JSONL, HAR 1.2, DNS snapshots,
tracker signatures and ranking lists.

Every parser is total: each line yields a record, a counted skip, or a
line-addressed diagnostic, never silent loss.  File formats are documented in
docs/formats.md.  Each record type's fields are declared once, in the tables
below, and read by ``errors.read_fields``: a fault is a ``SchemaViolation``
naming the path and line (or signature), or a ``MalformedHar`` naming the
path and entry (or page).

A corpus repeats its cookies: the same first-party ``Cookie`` header goes out
on many requests of a visit and the same ``Set-Cookie`` answers recur from
page to page.  So each corpus load keeps one ``_LoadMemo`` through which
equal cookie pairs, ``Cookie`` headers and ``Set-Cookie`` / ``document.cookie``
strings are parsed once and shared by identity (and content types classified
once); the records are immutable tuples and frozen ``CookieAttributes``, so
sharing is safe.
"""

from __future__ import annotations

import logging
import sys
from functools import cache

from .dnsgraph import DEFAULT_MAX_DEPTH, DnsRecordStore
from .errors import (BOOLEAN, DROP, INTEGER, KEEP, OBJECT, OBJECT_OR_NULL, OBJECTS, REQUIRED, STRING,
                     STRING_OR_NULL, STRINGS, Default, MalformedHar, SchemaViolation, excerpt,
                     field_table, json_lines, list_of, open_text, read_fields, read_json)
from .model import (HttpTransaction, JsCookieSet, PageVisit, TrackerSignature, UaLabel,
                    classify_content_type, split_url)
from .sitectx import CookieAttributes, PublicSuffixTable, canonical_host, parse_set_cookie

log = logging.getLogger(__name__)

CAPTURE_SCHEMA_VERSION = 1

_UA_ALIASES = {
    "chrome": UaLabel.CHROME_LIKE,
    "chromelike": UaLabel.CHROME_LIKE,
    "safari": UaLabel.SAFARI_LIKE,
    "safarilike": UaLabel.SAFARI_LIKE,
}


_NULL = type(None)
LINE_NAME = Default("the line's `name`")
INTEGER_OR_NULL = ("an integer or null", (int, _NULL), None)
SIZE = ("a non-negative integer", (int,), (0).__le__)
LIST = ("a list", (list,), None)
ID_OR_NULL = ("a string, a number or null", (str, int, float, _NULL), None)


def _is_url(value) -> bool:
    """A string that ``split_url`` takes apart."""
    try:
        split_url(value)
    except ValueError:
        return False
    return True


URLS = list_of("URL strings", lambda v: type(v) is str and _is_url(v))
HEADER_PAIRS = list_of("[name, value] string pairs", lambda h: type(h) is list and len(h) == 2
                       and type(h[0]) is str and type(h[1]) is str)
HAR_HEADERS = list_of("objects with a string name and value", lambda h: type(h) is dict
                      and type(h.get("name")) is str and type(h.get("value")) is str)
INITIATOR = ("a URL string or any other JSON value", (str, int, float, bool, list, dict, _NULL),
             lambda v: type(v) is not str or _is_url(v))
CALL_FRAMES = list_of("objects whose url is null or a URL string", lambda f: type(f) is dict and (
    f.get("url") is None or type(f["url"]) is str and _is_url(f["url"])), null=True)
ID_MARKERS = list_of("objects with a string location and name", lambda m: type(m) is dict
                     and type(m.get("location")) is str and type(m.get("name")) is str)

VISIT = field_table(("version", INTEGER, CAPTURE_SCHEMA_VERSION, KEEP),
                    ("visit_id", STRING, REQUIRED, KEEP),
                    ("page_url", STRING, REQUIRED, KEEP),
                    ("user_agent", STRING_OR_NULL, None, KEEP),
                    ("month", STRING_OR_NULL, None, DROP))
TRANSACTION = field_table(("visit_id", STRING, REQUIRED, KEEP),
                          ("url", STRING, REQUIRED, KEEP),
                          ("method", STRING, "GET", DROP),
                          ("request_headers", HEADER_PAIRS, (), KEEP),
                          ("response_headers", HEADER_PAIRS, (), KEEP),
                          ("status", INTEGER, 0, DROP),
                          ("response_size", SIZE, 0, KEEP),
                          ("content_type", STRING_OR_NULL, None, KEEP),
                          ("remote_ip", STRING_OR_NULL, None, KEEP),
                          ("initiators", URLS, (), KEEP),
                          ("post_body", STRING_OR_NULL, None, KEEP),
                          ("post_body_digest", STRING_OR_NULL, None, KEEP),
                          ("post_body_truncated", BOOLEAN, True, KEEP))
JS_COOKIE = field_table(("visit_id", STRING, REQUIRED, KEEP),
                        ("assigned", STRING, REQUIRED, KEEP),
                        ("stack", URLS, (), KEEP))
HAR_LOG = field_table(("pages", LIST, (), KEEP), ("entries", LIST, REQUIRED, KEEP), prefix="log.")
HAR_PAGE = field_table(("id", ID_OR_NULL, None, KEEP),
                       ("title", STRING_OR_NULL, None, KEEP),
                       ("_url", STRING_OR_NULL, None, KEEP))
HAR_ENTRY = field_table(("request", OBJECT, REQUIRED, KEEP),
                        ("pageref", ID_OR_NULL, None, KEEP),
                        ("response", OBJECT_OR_NULL, None, KEEP),
                        ("serverIPAddress", STRING_OR_NULL, None, KEEP),
                        ("_initiator", INITIATOR, None, KEEP),
                        ("startedDateTime", STRING_OR_NULL, None, KEEP))
HAR_REQUEST = field_table(("url", STRING, REQUIRED, KEEP),
                          ("headers", HAR_HEADERS, (), KEEP),
                          ("method", STRING, "GET", DROP),
                          ("postData", OBJECT_OR_NULL, None, KEEP), prefix="request.")
HAR_POST_DATA = field_table(("text", STRING_OR_NULL, None, KEEP),
                            ("mimeType", STRING_OR_NULL, None, KEEP), prefix="request.postData.")
HAR_RESPONSE = field_table(("headers", HAR_HEADERS, (), KEEP),
                           ("status", INTEGER, 0, DROP),
                           ("content", OBJECT_OR_NULL, None, KEEP), prefix="response.")
HAR_CONTENT = field_table(("size", INTEGER_OR_NULL, 0, KEEP),
                          ("mimeType", STRING_OR_NULL, None, KEEP), prefix="response.content.")
HAR_INITIATOR = field_table(("stack", OBJECT_OR_NULL, None, KEEP), prefix="_initiator.")
HAR_STACK = field_table(("callFrames", CALL_FRAMES, None, KEEP), prefix="_initiator.stack.")
DNS_LINE = field_table(("name", STRING, REQUIRED, KEEP),
                       ("answers", list_of("objects", lambda v: type(v) is dict, null=True), None, KEEP),
                       ("data", OBJECT_OR_NULL, None, KEEP),
                       ("month", STRING_OR_NULL, None, KEEP))
DNS_DATA = field_table(("answers", OBJECTS, (), KEEP), prefix="data.")
DNS_ANSWER = field_table(("type", STRING, REQUIRED, KEEP),
                         ("answer", STRING, REQUIRED, KEEP),
                         ("name", STRING, LINE_NAME, KEEP), prefix="answer.")
SIGNATURE = field_table(("tracker_id", STRING, REQUIRED, KEEP),
                        ("cname_suffixes", STRINGS, (), KEEP),
                        ("cidr_ranges", STRINGS, (), KEEP),
                        ("path_patterns", STRINGS, (), KEEP),
                        ("id_markers", ID_MARKERS, (), DROP))


class _LoadMemo:
    """The values one load call shares between its records.

    Each distinct ``(name, value)`` cookie pair, raw ``Cookie`` header,
    ``Set-Cookie`` or ``document.cookie`` string and content type is built
    or classified once, and an equal input later in the same load gets the
    same object back.  Everything stored is immutable (tuples of strings,
    frozen ``CookieAttributes``, ``ContentClass`` members), so only identity
    is shared; the memo is dropped with the load call."""

    __slots__ = ("pairs", "cookie_headers", "set_cookies", "content_class")

    def __init__(self):
        self.pairs: dict[tuple[str, str], tuple[str, str]] = {}
        self.cookie_headers: dict[str, tuple[tuple[str, str], ...]] = {}
        self.set_cookies: dict[str, CookieAttributes] = {}
        self.content_class = cache(classify_content_type)  # a response's content type, classified

    def pair(self, name: str, value: str) -> tuple[str, str]:
        key = (name, value)
        return self.pairs.setdefault(key, key)

    def cookie_header(self, value: str) -> tuple[tuple[str, str], ...]:
        """The (name, value) pairs of a raw Cookie header."""
        cookies = self.cookie_headers.get(value)
        if cookies is None:
            pair = self.pair
            cookies = self.cookie_headers[value] = tuple(
                pair(name.strip(), val.strip())
                for name, _, val in (part.partition("=") for part in value.split(";") if part.strip()))
        return cookies

    def set_cookie(self, value: str) -> CookieAttributes:
        """A Set-Cookie header value or document.cookie string, parsed."""
        attrs = self.set_cookies.get(value)
        if attrs is None:
            attrs = self.set_cookies[value] = parse_set_cookie(value)
        return attrs


def _derive_headers(headers, response: bool, memo: _LoadMemo):
    """(derived, content_type, user_agent) from checked (name, value) header
    pairs: the request's cookies, first Content-Type and first User-Agent,
    or the response's Set-Cookie records, as tuples shared through ``memo``."""
    derived = []
    content_type = user_agent = None
    for name, value in headers:
        key = name.lower()
        if response:
            if key == "set-cookie":
                derived.append(memo.set_cookie(value))
        elif key == "cookie":
            derived.append(memo.cookie_header(value))
        elif key == "content-type" and content_type is None:
            content_type = value
        elif key == "user-agent" and user_agent is None:
            user_agent = value
    if response:
        return tuple(derived), None, None
    # a single Cookie header, the usual case, keeps its shared tuple
    cookies = derived[0] if len(derived) == 1 else tuple(c for cs in derived for c in cs)
    return cookies, content_type, user_agent


def _ua_label(value: str | None) -> UaLabel:
    if not value:
        return UaLabel.OTHER
    key = value.strip().lower().replace("-", "").replace("_", "")
    if key in _UA_ALIASES:
        return _UA_ALIASES[key]
    if "safari" in key and "chrome" not in key and "chromium" not in key:
        return UaLabel.SAFARI_LIKE
    if "chrome" in key or "chromium" in key:
        return UaLabel.CHROME_LIKE
    return UaLabel.OTHER


def load_crawl_jsonl(path, psl: PublicSuffixTable | None = None) -> list[PageVisit]:
    """Load the capture JSONL schema (visit / transaction / js_cookie records)."""
    visits: dict[str, PageVisit] = {}
    memo = _LoadMemo()
    path = str(path)
    for lineno, obj in json_lines(path):
        rtype = obj.get("record_type") if type(obj) is dict else None
        try:
            if rtype == "transaction":
                _ingest_transaction(obj, visits, memo, lineno, path)
            elif rtype == "visit":
                _ingest_visit(obj, visits, psl, lineno, path)
            elif rtype == "js_cookie":
                _ingest_js_cookie(obj, visits, memo, lineno, path)
            elif type(rtype) is not str:
                raise SchemaViolation("missing record_type" if rtype is None
                                      else "record_type must be a string", lineno, path)
            else:
                raise SchemaViolation(f"unknown record_type {excerpt(rtype)}", lineno, path)
        except ValueError as exc:  # a URL that does not split
            raise SchemaViolation(f"bad URL: {exc}", lineno, path) from None
    return list(visits.values())


def _ingest_visit(obj, visits, psl, lineno, path):
    version, visit_id, page_url, user_agent = read_fields(obj, VISIT, SchemaViolation, lineno, path)
    if version != CAPTURE_SCHEMA_VERSION:
        raise SchemaViolation(f"unsupported capture version {version}", lineno, path)
    if visit_id in visits:
        raise SchemaViolation(f"duplicate visit_id {visit_id!r}", lineno, path)
    visit = visits[visit_id] = PageVisit(page_url, visit_id, user_agent_label=_ua_label(user_agent))
    if psl:
        visit.site = psl.etld_plus_one_or_none(visit.page_host)


def _visit_of(visit_id, visits, rtype: str, lineno, path) -> PageVisit:
    """The loaded visit a transaction or js_cookie record names."""
    visit = visits.get(visit_id)
    if visit is None:
        raise SchemaViolation(f"{rtype} for unknown visit_id {visit_id!r}", lineno, path)
    return visit


def _ingest_transaction(obj, visits, memo: _LoadMemo, lineno, path):
    (visit_id, url, request_headers, response_headers, size, content_type, remote_ip, initiators,
     post_body, digest, truncated) = read_fields(obj, TRANSACTION, SchemaViolation, lineno, path)
    visit = visits.get(visit_id) or _visit_of(visit_id, visits, "transaction", lineno, path)
    cookies, post_content_type, _ = (_derive_headers(request_headers, False, memo) if request_headers
                                     else ((), None, None))
    txn = HttpTransaction(
        request_url=url,
        request_cookies=cookies,
        set_cookies=_derive_headers(response_headers, True, memo)[0] if response_headers else (),
        post_content_type=post_content_type,
        response_size=size,
        content_type_class=memo.content_class(content_type),
        remote_ip=remote_ip and sys.intern(remote_ip),
        initiators=tuple(initiators),
    )
    if digest:  # pre-truncated capture: keep the body and the declared flag
        txn.post_body, txn.post_body_truncated = post_body, truncated
    elif post_body is not None:
        txn.store_post_body(post_body)
    visit.transactions.append(txn)


def _ingest_js_cookie(obj, visits, memo: _LoadMemo, lineno, path):
    visit_id, assigned, stack = read_fields(obj, JS_COOKIE, SchemaViolation, lineno, path)
    _visit_of(visit_id, visits, "js_cookie", lineno, path).js_cookie_sets.append(
        JsCookieSet(parsed=memo.set_cookie(assigned), stack=tuple(stack)))


def _fresh_id(taken, n: int) -> str:
    """The first of ``page_<n>``, ``page_<n+1>``, ... that is not in ``taken``."""
    while f"page_{n}" in taken:
        n += 1
    return f"page_{n}"


def _har_initiators(initiator, idx: int, path: str) -> tuple[str, ...]:
    """The script URLs of an entry's ``_initiator``: the string itself, or the
    non-empty ``url`` of each of its ``stack.callFrames`` objects."""
    if type(initiator) is str:
        return (initiator,)
    if type(initiator) is not dict:
        return ()
    (stack,) = read_fields(initiator, HAR_INITIATOR, MalformedHar, idx, path)
    (frames,) = read_fields(stack or {}, HAR_STACK, MalformedHar, idx, path)
    return tuple(frame["url"] for frame in frames or () if frame.get("url"))


def load_har(path, psl: PublicSuffixTable | None = None) -> list[PageVisit]:
    """Load a HAR 1.2 capture; one PageVisit per page entry."""
    path = str(path)
    doc = read_json(path, MalformedHar)
    har_log = doc.get("log") if type(doc) is dict else None
    if type(har_log) is not dict:
        raise MalformedHar("missing log/entries structure", None, path)
    pages, entries = read_fields(har_log, HAR_LOG, MalformedHar, None, path)

    visits: dict = {}
    page_fields = [read_fields(page, HAR_PAGE, MalformedHar, None, path, f"page {i}: ")
                   for i, page in enumerate(pages)]
    taken = {pid for pid, _, _ in page_fields if pid}
    for i, (pid, title, url) in enumerate(page_fields):
        if pid and pid in visits:
            raise MalformedHar(f"page {i}: duplicate id {pid!r}", None, path)
        if not pid:  # never an id the file names
            pid = _fresh_id(taken, i)
            taken.add(pid)
        try:
            visit = visits[pid] = PageVisit(page_url=title or url or "", visit_id=pid)
        except ValueError as exc:
            raise MalformedHar(f"page {i}: bad URL: {exc}", None, path) from None
        if psl and visit.page_host:
            visit.site = psl.etld_plus_one_or_none(visit.page_host)

    memo = _LoadMemo()
    timed = []  # (pageref, index, transaction, startedDateTime, first User-Agent)
    for idx, entry in enumerate(entries):
        request, pageref, response, server_ip, initiator, started = read_fields(
            entry, HAR_ENTRY, MalformedHar, idx, path)
        url, headers, post = read_fields(request, HAR_REQUEST, MalformedHar, idx, path)
        if pages and pageref not in visits:
            raise MalformedHar(f"unknown pageref {pageref!r}", idx, path)
        cookies, post_content_type, user_agent = _derive_headers(
            [(h["name"], h["value"]) for h in headers], False, memo)
        try:
            txn = HttpTransaction(request_url=url, request_cookies=cookies,
                                  post_content_type=post_content_type)
            if not pages and pageref not in visits:  # pageless: one visit per pageref
                visits[pageref] = PageVisit(page_url=url, visit_id=pageref)
        except ValueError as exc:
            raise MalformedHar(f"bad URL: {exc}", idx, path) from None
        if response:
            headers, content = read_fields(response, HAR_RESPONSE, MalformedHar, idx, path)
            txn.set_cookies = _derive_headers([(h["name"], h["value"]) for h in headers], True, memo)[0]
            size, mime = read_fields(content or {}, HAR_CONTENT, MalformedHar, idx, path)
            txn.response_size = max(size or 0, 0)
            txn.content_type_class = memo.content_class(mime)
        else:
            log.warning("%s: entry %d has no response; recorded with status 0", path, idx)
        if post:
            text, post_mime = read_fields(post, HAR_POST_DATA, MalformedHar, idx, path)
            txn.store_post_body(text)
            if txn.post_content_type is None:  # a Content-Type header wins
                txn.post_content_type = post_mime
        txn.remote_ip = sys.intern(server_ip) if server_ip else None
        txn.initiators = _har_initiators(initiator, idx, path)
        timed.append((pageref, idx, txn, started or "", user_agent))

    if None in visits:  # entries of a pageless HAR without a pageref
        visits[None].visit_id = _fresh_id(visits, 0)
    timed.sort(key=lambda item: (item[3], item[1]))
    user_agents: dict = {}  # the earliest request's non-empty User-Agent, per visit
    for pageref, _idx, txn, _t, user_agent in timed:
        visits[pageref].transactions.append(txn)
        if user_agent:
            user_agents.setdefault(pageref, user_agent)
    for pageref, user_agent in user_agents.items():
        visits[pageref].user_agent_label = _ua_label(user_agent)
    return list(visits.values())


_RR_KINDS = {"CNAME": "CNAME", "A": "A", "AAAA": "A"}  # other record types are ignored, not an error


def load_dns(path, max_depth: int = DEFAULT_MAX_DEPTH) -> DnsRecordStore:
    """Load zdns-style line-delimited JSON into a DnsRecordStore of that chain-depth cap."""
    store = DnsRecordStore(max_depth)
    add = store.add
    path = str(path)
    for lineno, obj in json_lines(path):
        name, answers, data, month = read_fields(obj, DNS_LINE, SchemaViolation, lineno, path)
        if answers is None:
            (answers,) = read_fields(data or {}, DNS_DATA, SchemaViolation, lineno, path)
        for ans in answers:
            rr_type, answer, owner = read_fields(ans, DNS_ANSWER, SchemaViolation, lineno, path)
            kind = _RR_KINDS.get(rr_type) or _RR_KINDS.get(rr_type.upper())
            if kind:
                add(name if owner is LINE_NAME else owner, kind, answer, month)
    return store


def load_signatures(path) -> list[TrackerSignature]:
    """Load the tracker signature JSON file."""
    path = str(path)
    doc = read_json(path)
    if type(doc) is not list:
        raise SchemaViolation("signature file must be a JSON array", None, path)
    sigs = []
    for i, entry in enumerate(doc):
        tracker_id, suffixes, ranges, path_patterns = read_fields(
            entry, SIGNATURE, SchemaViolation, None, path, f"signature {i}: ")
        try:
            sigs.append(TrackerSignature(tracker_id, tuple(map(canonical_host, suffixes)),
                                         tuple(ranges), tuple(path_patterns)))
        except ValueError as exc:
            raise SchemaViolation(f"signature {i}: {exc}", None, path) from None
    return sigs


def load_ranking(path) -> dict[str, int]:
    """Load a Tranco-style "rank,domain" CSV into a domain -> rank map."""
    import csv

    ranks: dict[str, int] = {}
    with open_text(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row or (lineno == 1 and not row[0].strip().isdigit()):
                continue  # header or blank
            if len(row) < 2:
                raise SchemaViolation("expected rank,domain", line=lineno, path=str(path))
            try:
                rank = int(row[0])
            except ValueError:
                raise SchemaViolation(f"bad rank {row[0]!r}", line=lineno, path=str(path))
            domain = canonical_host(row[1].strip())
            ranks.setdefault(domain, rank)
    return ranks
