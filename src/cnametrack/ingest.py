"""Loaders for all input corpora: capture JSONL, HAR 1.2, DNS snapshots,
tracker signatures and ranking lists.

Every parser is total: each line yields a record, a counted skip, or a
line-addressed diagnostic, never silent loss.  File formats are documented in
docs/formats.md.

A corpus repeats its cookies: the same first-party ``Cookie`` header goes out
on many requests of a visit and the same ``Set-Cookie`` answers recur from
page to page.  So each corpus load keeps one ``_LoadMemo`` through which
equal cookie pairs, ``Cookie`` headers and ``Set-Cookie`` / ``document.cookie``
strings are parsed once and shared by identity; the records are immutable
tuples and frozen ``CookieAttributes``, so sharing is safe.

Input fields that no stage reads (a request's method, its status, headers
other than ``Cookie``, ``Content-Type`` and ``Set-Cookie``, a declared POST
digest, a visit's month, a signature's ``id_markers`` and ``notes``) are
type-checked as before and then dropped.
"""

from __future__ import annotations

import json
import logging
import sys

from .dnsgraph import DEFAULT_MAX_DEPTH, DnsRecordStore
from .errors import MalformedHar, SchemaViolation, open_text
from .model import (
    HttpTransaction,
    JsCookieSet,
    PageVisit,
    TrackerSignature,
    UaLabel,
    classify_content_type,
)
from .sitectx import CookieAttributes, PublicSuffixTable, parse_set_cookie

log = logging.getLogger(__name__)

CAPTURE_SCHEMA_VERSION = 1

_UA_ALIASES = {
    "chrome": UaLabel.CHROME_LIKE,
    "chromelike": UaLabel.CHROME_LIKE,
    "safari": UaLabel.SAFARI_LIKE,
    "safarilike": UaLabel.SAFARI_LIKE,
}


def _parse_cookie_header(value: str) -> list[tuple[str, str]]:
    cookies = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        name, _, val = part.partition("=")
        cookies.append((name.strip(), val.strip()))
    return cookies


class _LoadMemo:
    """The values one load call shares between its records.

    Each distinct ``(name, value)`` cookie pair, raw ``Cookie`` header and
    ``Set-Cookie`` or ``document.cookie`` string is built once, and an
    equal input later in the same load gets the same object back.
    Everything stored is immutable (tuples of strings, frozen
    ``CookieAttributes``), so only identity is shared; the memo is dropped
    with the load call."""

    __slots__ = ("pairs", "cookie_headers", "set_cookies")

    def __init__(self):
        self.pairs: dict[tuple[str, str], tuple[str, str]] = {}
        self.cookie_headers: dict[str, tuple[tuple[str, str], ...]] = {}
        self.set_cookies: dict[str, CookieAttributes] = {}

    def pair(self, name: str, value: str) -> tuple[str, str]:
        key = (name, value)
        return self.pairs.setdefault(key, key)

    def cookie_header(self, value: str) -> tuple[tuple[str, str], ...]:
        """The (name, value) pairs of a raw Cookie header."""
        cookies = self.cookie_headers.get(value)
        if cookies is None:
            pair = self.pair
            cookies = self.cookie_headers[value] = tuple(
                pair(name, val) for name, val in _parse_cookie_header(value))
        return cookies

    def set_cookie(self, value: str) -> CookieAttributes:
        """A Set-Cookie header value or document.cookie string, parsed."""
        attrs = self.set_cookies.get(value)
        if attrs is None:
            attrs = self.set_cookies[value] = parse_set_cookie(value)
        return attrs


def _read_headers(headers: list, response: bool, memo: _LoadMemo, har: bool):
    """(derived, content_type, user_agent) from a header list, or None when
    an element is not a string pair (HAR: an object with ``name`` and
    ``value``; JSONL: a two-element list).  The pass that validates the
    pairs derives the request's cookies, first Content-Type and first
    User-Agent, or the response's Set-Cookie records (the other two are then
    None).  The derived records are tuples of values shared through
    ``memo``; no headers give ``()``.  The pairs themselves are not kept."""
    if not headers:
        return (), None, None
    derived = []
    content_type = user_agent = None
    for h in headers:
        if har:
            if not isinstance(h, dict):
                return None
            name, value = h.get("name"), h.get("value")
        elif isinstance(h, list) and len(h) == 2:
            name, value = h
        else:
            return None
        if not (isinstance(name, str) and isinstance(value, str)):
            return None
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


_STR_OR_NULL = (str, type(None))
_PAGE_ID = (str, int, float)  # a HAR page id or pageref: any JSON scalar that keys a dict


def _checked(value, key: str, types, what: str):
    """``value`` when it is an instance of ``types``, else a SchemaViolation."""
    if not isinstance(value, types):
        raise SchemaViolation(f"{key} must be {what}")
    return value


def _interned(value: str | None) -> str | None:
    return value if value is None else sys.intern(value)


def _strings(value, key: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple, else a SchemaViolation."""
    if isinstance(value, list):
        for v in value:
            if not isinstance(v, str):
                break
        else:
            return tuple(value)
    raise SchemaViolation(f"{key} must be a list of strings")


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
    order: list[str] = []
    memo = _LoadMemo()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(f"bad JSON: {exc}", line=lineno, path=str(path))
            if not isinstance(obj, dict) or "record_type" not in obj:
                raise SchemaViolation("missing record_type", line=lineno, path=str(path))
            rtype = obj["record_type"]
            try:
                if rtype == "visit":
                    _ingest_visit(obj, visits, order, psl)
                elif rtype == "transaction":
                    _ingest_transaction(obj, visits, memo)
                elif rtype == "js_cookie":
                    _ingest_js_cookie(obj, visits, memo)
                else:
                    raise SchemaViolation(f"unknown record_type {rtype!r}")
            except SchemaViolation as exc:
                raise SchemaViolation(str(exc.args[0]), line=lineno, path=str(path)) from None
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaViolation(f"{rtype} record: {exc}", line=lineno, path=str(path))
    return [visits[v] for v in order]


def _ingest_visit(obj, visits, order, psl):
    version = obj.get("version", CAPTURE_SCHEMA_VERSION)
    if version != CAPTURE_SCHEMA_VERSION:
        raise SchemaViolation(f"unsupported capture version {version!r}")
    visit_id = _checked(obj["visit_id"], "visit_id", str, "a string")
    if visit_id in visits:
        raise SchemaViolation(f"duplicate visit_id {visit_id!r}")
    page_url = _checked(obj["page_url"], "page_url", str, "a string")
    user_agent = _checked(obj.get("user_agent"), "user_agent", _STR_OR_NULL, "a string or null")
    _checked(obj.get("month"), "month", _STR_OR_NULL, "a string or null")  # checked, not kept
    visit = PageVisit(page_url=page_url, visit_id=visit_id, user_agent_label=_ua_label(user_agent))
    if psl:
        visit.site = psl.etld_plus_one_or_none(visit.page_host)
    visits[visit_id] = visit
    order.append(visit_id)


def _jsonl_headers(obj, key: str, memo: _LoadMemo):
    headers = obj.get(key, [])
    read = _read_headers(headers, key == "response_headers", memo, har=False) \
        if isinstance(headers, list) else None
    if read is None:
        raise SchemaViolation(f"{key} must be a list of [name, value] string pairs")
    return read


def _visit_of(obj, visits, rtype: str) -> PageVisit:
    """The loaded visit a transaction or js_cookie record names."""
    visit_id = _checked(obj["visit_id"], "visit_id", str, "a string")
    visit = visits.get(visit_id)
    if visit is None:
        raise SchemaViolation(f"{rtype} for unknown visit_id {visit_id!r}")
    return visit


def _ingest_transaction(obj, visits, memo: _LoadMemo):
    visit = _visit_of(obj, visits, "transaction")
    url = _checked(obj["url"], "url", str, "a string")
    _checked(obj.get("method", "GET"), "method", str, "a string")
    cookies, post_content_type, _ = _jsonl_headers(obj, "request_headers", memo)
    set_cookies, _, _ = _jsonl_headers(obj, "response_headers", memo)
    int(obj.get("status", 0))  # checked, not kept
    txn = HttpTransaction(
        request_url=url,
        request_cookies=cookies,
        set_cookies=set_cookies,
        post_content_type=post_content_type,
        response_size=int(obj.get("response_size", 0)),
        content_type_class=classify_content_type(
            _checked(obj.get("content_type"), "content_type", _STR_OR_NULL, "a string or null")),
        remote_ip=_interned(_checked(obj.get("remote_ip"), "remote_ip", _STR_OR_NULL,
                                     "a string or null")),
        initiators=_strings(obj.get("initiators", []), "initiators"),
    )
    if txn.response_size < 0:
        raise SchemaViolation("negative response_size")
    post_body = _checked(obj.get("post_body"), "post_body", _STR_OR_NULL, "a string or null")
    if obj.get("post_body_digest"):
        # pre-truncated capture: keep the body and the declared flag
        txn.post_body = post_body
        txn.post_body_truncated = bool(obj.get("post_body_truncated", True))
    else:
        txn.store_post_body(post_body)
    visit.transactions.append(txn)


def _ingest_js_cookie(obj, visits, memo: _LoadMemo):
    visit = _visit_of(obj, visits, "js_cookie")
    assigned = obj["assigned"]
    if not isinstance(assigned, str):
        raise SchemaViolation("js_cookie assigned must be a string")
    visit.js_cookie_sets.append(
        JsCookieSet(parsed=memo.set_cookie(assigned), stack=_strings(obj.get("stack", []), "stack")))


def _har_headers(message: dict, entry_index: int, memo: _LoadMemo, response: bool):
    """A HAR request's or response's headers, read by ``_read_headers``."""
    headers = message.get("headers", [])
    if not isinstance(headers, list):
        raise MalformedHar("headers must be a list", entry_index=entry_index)
    read = _read_headers(headers, response, memo, har=True)
    if read is None:
        raise MalformedHar("header needs a string name and value", entry_index=entry_index)
    return read


def _har_int(value, field: str, entry_index: int) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise MalformedHar(f"{field} must be a number, not {value!r}", entry_index=entry_index) from None


def _har_initiators(initiator, entry_index: int) -> tuple[str, ...]:
    """The script URLs of an entry's ``_initiator``: the string itself, or the
    non-empty ``url`` of each of its ``stack.callFrames`` objects."""
    if isinstance(initiator, str):
        return (initiator,)
    if not isinstance(initiator, dict):
        return ()
    stack = initiator.get("stack") or {}
    frames = (stack.get("callFrames") or []) if isinstance(stack, dict) else None
    if not isinstance(frames, list):
        raise MalformedHar("_initiator.stack must be an object with a callFrames list",
                           entry_index=entry_index)
    for frame in frames:
        if not (isinstance(frame, dict) and isinstance(frame.get("url"), _STR_OR_NULL)):
            raise MalformedHar("call frame must be an object with a string url",
                               entry_index=entry_index)
    return tuple(frame["url"] for frame in frames if frame.get("url"))


def load_har(path, psl: PublicSuffixTable | None = None) -> list[PageVisit]:
    """Load a HAR 1.2 capture; one PageVisit per page entry.  A MalformedHar
    names the file."""
    try:
        return _har_visits(path, psl)
    except MalformedHar as exc:
        raise MalformedHar(exc.reason, exc.entry_index, path=str(path)) from None


def _har_visits(path, psl: PublicSuffixTable | None) -> list[PageVisit]:
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedHar(f"not JSON: {exc}")
    har_log = doc.get("log") if isinstance(doc, dict) else None
    if not isinstance(har_log, dict) or "entries" not in har_log:
        raise MalformedHar("missing log/entries structure")
    pages, entries = har_log.get("pages", []), har_log["entries"]
    if not isinstance(pages, list):
        raise MalformedHar("log.pages must be a list")
    if not isinstance(entries, list):
        raise MalformedHar("log.entries must be a list")

    visits: dict[str, PageVisit] = {}
    order: list[str] = []
    memo = _LoadMemo()
    for i, page in enumerate(pages):
        if not isinstance(page, dict):
            raise MalformedHar(f"page {i}: not an object")
        pid = page.get("id") or f"page_{len(order)}"
        if not isinstance(pid, _PAGE_ID):
            raise MalformedHar(f"page {i}: id must be a string or number")
        if pid in visits:
            raise MalformedHar(f"page {i}: duplicate id {pid!r}")
        page_url = page.get("title") or page.get("_url") or ""
        if not isinstance(page_url, str):
            raise MalformedHar(f"page {pid!r}: title/_url must be a string")
        visit = visits[pid] = PageVisit(page_url=page_url, visit_id=pid)
        if psl and visit.page_host:
            visit.site = psl.etld_plus_one_or_none(visit.page_host)
        order.append(pid)

    # (pageref, index, transaction, startedDateTime, first User-Agent)
    timed: list[tuple[str, int, HttpTransaction, str, str | None]] = []
    for idx, entry in enumerate(entries):
        try:
            request = entry["request"]
            url = request["url"]
        except (KeyError, TypeError):
            raise MalformedHar("entry missing request.url", entry_index=idx)
        if not isinstance(url, str):
            raise MalformedHar("request.url must be a string", entry_index=idx)
        pageref = entry.get("pageref")
        if not isinstance(pageref, (*_PAGE_ID, type(None))):
            raise MalformedHar("pageref must be a string or number", entry_index=idx)
        if not pages:  # pageless HAR: one visit per distinct pageref, page_0 for none
            if pageref is None:
                pageref = "page_0"
            if pageref not in visits:
                visits[pageref] = PageVisit(page_url=url, visit_id=pageref)
                order.append(pageref)
        elif pageref not in visits:
            raise MalformedHar(f"unknown pageref {pageref!r}", entry_index=idx)
        cookies, post_content_type, user_agent = _har_headers(request, idx, memo, response=False)
        if not isinstance(request.get("method", "GET"), str):
            raise MalformedHar("request.method must be a string", entry_index=idx)
        txn = HttpTransaction(request_url=url, request_cookies=cookies,
                              post_content_type=post_content_type)
        response = entry.get("response")
        if response:
            if not isinstance(response, dict):
                raise MalformedHar("response must be an object", entry_index=idx)
            txn.set_cookies, _, _ = _har_headers(response, idx, memo, response=True)
            _har_int(response.get("status", 0), "response.status", idx)  # checked, not kept
            content = response.get("content", {}) or {}
            if not isinstance(content, dict):
                raise MalformedHar("response.content must be an object", entry_index=idx)
            txn.response_size = max(_har_int(content.get("size", 0) or 0, "content.size", idx), 0)
            mime = content.get("mimeType")
            if not isinstance(mime, _STR_OR_NULL):
                raise MalformedHar("content.mimeType must be a string", entry_index=idx)
            txn.content_type_class = classify_content_type(mime)
        else:
            log.warning("%s: entry %d has no response; recorded with status 0", path, idx)
        post = request.get("postData")
        if post:
            if not isinstance(post, dict):
                raise MalformedHar("request.postData must be an object", entry_index=idx)
            text, post_mime = post.get("text"), post.get("mimeType")
            if not (isinstance(text, _STR_OR_NULL) and isinstance(post_mime, _STR_OR_NULL)):
                raise MalformedHar("postData text and mimeType must be strings", entry_index=idx)
            txn.store_post_body(text)
            if txn.post_content_type is None:  # a Content-Type header wins
                txn.post_content_type = post_mime
        server_ip = entry.get("serverIPAddress")
        if not isinstance(server_ip, _STR_OR_NULL):
            raise MalformedHar("serverIPAddress must be a string", entry_index=idx)
        txn.remote_ip = _interned(server_ip or None)
        txn.initiators = _har_initiators(entry.get("_initiator"), idx)
        started = entry.get("startedDateTime")
        if not isinstance(started, _STR_OR_NULL):
            raise MalformedHar("startedDateTime must be a string", entry_index=idx)
        timed.append((pageref, idx, txn, started or "", user_agent))

    timed.sort(key=lambda item: (item[3], item[1]))
    user_agents: dict[str, str] = {}  # the earliest request's non-empty User-Agent, per visit
    for pageref, _idx, txn, _t, user_agent in timed:
        visits[pageref].transactions.append(txn)
        if user_agent:
            user_agents.setdefault(pageref, user_agent)
    for pageref, user_agent in user_agents.items():
        visits[pageref].user_agent_label = _ua_label(user_agent)
    return [visits[v] for v in order]


def load_dns(path, max_depth: int = DEFAULT_MAX_DEPTH) -> DnsRecordStore:
    """Load zdns-style line-delimited JSON into a DnsRecordStore of that chain-depth cap."""
    store = DnsRecordStore(max_depth)
    add = store.add
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(f"bad JSON: {exc}", line=lineno, path=str(path))
            if not isinstance(obj, dict) or "name" not in obj:
                raise SchemaViolation("missing name", line=lineno, path=str(path))
            answers = obj.get("answers")
            if answers is None:
                data = obj.get("data") or {}
                answers = data.get("answers", []) if isinstance(data, dict) else None
            if not isinstance(answers, list):
                raise SchemaViolation("answers must be a list", line=lineno, path=str(path))
            month = obj.get("month")
            if not isinstance(month, _STR_OR_NULL):
                raise SchemaViolation("month must be a string or null", line=lineno, path=str(path))
            name = obj["name"]
            for ans in answers:
                try:
                    rr_type = ans["type"].upper()
                    owner = ans.get("name", name)
                    answer = ans["answer"]
                except (KeyError, TypeError, AttributeError):
                    raise SchemaViolation("bad answer record", line=lineno, path=str(path))
                if not isinstance(answer, str) or not isinstance(owner, str):
                    raise SchemaViolation("answer and name must be strings", line=lineno, path=str(path))
                if rr_type == "CNAME":
                    add(owner, "CNAME", answer, month)
                elif rr_type == "A" or rr_type == "AAAA":
                    add(owner, "A", answer, month)
                # other record types are ignored but not an error
    return store


def load_signatures(path) -> list[TrackerSignature]:
    """Load the tracker signature JSON file."""
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"bad JSON: {exc}", path=str(path))
    if not isinstance(doc, list):
        raise SchemaViolation("signature file must be a JSON array", path=str(path))
    sigs = []
    for i, entry in enumerate(doc):
        try:
            tracker_id = _checked(entry["tracker_id"], "tracker_id", str, "a string")
            cname_suffixes = tuple(s.lower().rstrip(".")
                                   for s in _strings(entry.get("cname_suffixes", []), "cname_suffixes"))
            cidr_ranges = _strings(entry.get("cidr_ranges", []), "cidr_ranges")
            path_patterns = _strings(entry.get("path_patterns", []), "path_patterns")
            # id_markers are checked, not kept; notes are not read at all
            for marker in entry.get("id_markers", []):
                marker["location"], marker["name"]
            sigs.append(TrackerSignature(tracker_id, cname_suffixes, cidr_ranges, path_patterns))
        except (KeyError, TypeError, ValueError, SchemaViolation) as exc:
            raise SchemaViolation(f"signature {i}: {exc}", path=str(path))
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
            domain = row[1].strip().lower()
            ranks.setdefault(domain, rank)
    return ranks
