"""Shared header and cookie records against the list-building reference.

``ingest._derive_headers`` keeps one memo per load call, so equal cookie
pairs, raw Cookie headers and Set-Cookie / document.cookie strings are parsed
once and come back as the same immutable object.  ``tests/naiveheaders.py``
keeps the earlier loader code, which built fresh lists for every record.
Every derived field must equal the reference's, compared as tuples; within
one load equal inputs must give the same object; two loads must share none.
A HAR visit's user-agent label comes from the first ``User-Agent`` header of
its earliest request that has a non-empty one.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpusgen
import naiveheaders
from cnametrack.ingest import (
    HAR_HEADERS,
    HEADER_PAIRS,
    _derive_headers,
    _LoadMemo,
    _ua_label,
    load_crawl_jsonl,
    load_har,
)
from cnametrack.model import HttpTransaction, UaLabel

NAMES = ["Cookie", "cookie", "COOKIE", "CoOkIe", "Set-Cookie", "set-cookie", "SET-COOKIE",
         "Set-CooKie",  # KELVIN SIGN lower-cases to "k"
         "Content-Type", "content-type", "CONTENT-TYPE", "X-Other", "User-Agent", "",
         "Cöokie", " Cookie", "Cookie "]
PIECES = ["a=1", "b=2", "a=1", "a=2", ";;", ";", "=", "x=y=z", "  c = 3 ", "empty=", "=v",
          "é=ü", "日本=値", "Domain=.Ex.COM", "domain=", "Path=/p", "path=",
          "Secure", "SameSite=lax", "samesite=Strict", "SameSite=bogus", "Max-Age=10",
          "max-age=x", "Expires=Wed, 01 Jan 2031 00:00:00 GMT", " ", "\t", "", "text/plain",
          "application/json; charset=utf-8"]

values = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=6).flatmap(
        lambda parts: st.sampled_from(["; ", ";", "", " ; "]).map(lambda sep: sep.join(parts))),
    st.text(alphabet=st.sampled_from(list("ab=; \té,.")), max_size=12),
)
header = st.tuples(st.sampled_from(NAMES), values)
header_lists = st.lists(header, max_size=5)
# a small pool of header lists and assigned strings, drawn from repeatedly, so
# that equal values recur within one load
pools = st.tuples(st.lists(header_lists, min_size=1, max_size=4),
                  st.lists(values, min_size=1, max_size=3))


def _draws(pool, n):
    return st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=n)


@st.composite
def corpora(draw):
    """(request header lists, response header lists, js_cookie strings, methods, ips)
    for the transactions of one load."""
    (lists, assigned) = draw(pools)
    reqs = [lists[i] for i in draw(_draws(lists, 8))]
    resps = [lists[i] for i in draw(st.lists(st.integers(0, len(lists) - 1),
                                             min_size=len(reqs), max_size=len(reqs)))]
    js = [assigned[i] for i in draw(_draws(assigned, 3))]
    methods = draw(st.lists(st.sampled_from(["GET", "POST", "get"]),
                            min_size=len(reqs), max_size=len(reqs)))
    ips = draw(st.lists(st.sampled_from([None, "203.0.113.7", "2001:db8::1"]),
                        min_size=len(reqs), max_size=len(reqs)))
    return reqs, resps, js, methods, ips


def write_jsonl(tmp: Path, corpus) -> Path:
    reqs, resps, js, methods, ips = corpus
    records = [corpusgen.visit_record("v1", "https://www.shop.com/")]
    for i, (req, resp, method, ip) in enumerate(zip(reqs, resps, methods, ips)):
        rec = corpusgen.txn_record("v1", f"https://t.shop.com/p{i}", method=method, remote_ip=ip)
        rec["request_headers"] = [list(h) for h in req]
        rec["response_headers"] = [list(h) for h in resp]
        records.append(rec)
    records += [corpusgen.js_cookie_record("v1", a, []) for a in js]
    return corpusgen.write_jsonl(records, tmp / "c.jsonl")


def write_har(tmp: Path, corpus) -> Path:
    reqs, resps, _js, methods, ips = corpus
    entries = [{
        "pageref": "p1",
        "startedDateTime": f"2020-10-01T00:00:{i:02d}Z",
        "request": {"url": f"https://t.shop.com/p{i}", "method": method,
                    "headers": [{"name": n, "value": v} for n, v in req]},
        "response": {"status": 200, "content": {"size": 1},
                     "headers": [{"name": n, "value": v} for n, v in resp]},
        "serverIPAddress": ip,
    } for i, (req, resp, method, ip) in enumerate(zip(reqs, resps, methods, ips))]
    doc = {"log": {"pages": [{"id": "p1", "title": "https://www.shop.com/"}], "entries": entries}}
    path = tmp / "c.har"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def reference(req, resp, har: bool):
    _pairs, cookies, content_type = naiveheaders._read_headers(
        [{"name": n, "value": v} for n, v in req] if har else [list(h) for h in req], False, har)
    _resp_pairs, set_cookies, _ = naiveheaders._read_headers(
        [{"name": n, "value": v} for n, v in resp] if har else [list(h) for h in resp], True, har)
    return tuple(cookies), content_type, tuple(set_cookies)


def derived(txn: HttpTransaction):
    fields = (txn.request_cookies, txn.post_content_type, txn.set_cookies)
    assert type(fields[0]) is tuple and type(fields[2]) is tuple
    return fields


def first_user_agent(pairs) -> str | None:
    """The value of the first ``User-Agent`` pair, matched case-insensitively."""
    return next((v for n, v in pairs if n.lower() == "user-agent"), None)


def shared_objects(visit, reqs, resps, js):
    """Every cookie pair and CookieAttributes of a load, checking that equal
    pairs, and the records of equal Cookie, Set-Cookie and document.cookie
    strings, are one object.  ``reqs``, ``resps`` and ``js`` are the raw
    headers and assigned strings the visit was loaded from."""
    pairs, attrs, strings, cookie_tuples = {}, {}, {}, {}
    for txn, req, resp in zip(visit.transactions, reqs, resps, strict=True):
        for p in txn.request_cookies:
            assert pairs.setdefault(p, p) is p
        raw_set_cookies = [v for n, v in resp if n.lower() == "set-cookie"]
        for raw, a in zip(raw_set_cookies, txn.set_cookies, strict=True):
            assert attrs.setdefault(raw, a) is a
        if txn.remote_ip is not None:
            assert strings.setdefault(txn.remote_ip, txn.remote_ip) is txn.remote_ip
        cookie_headers = [v for n, v in req if n.lower() == "cookie"]
        if len(cookie_headers) == 1:  # one header: its parsed tuple itself
            cookies = txn.request_cookies
            assert cookie_tuples.setdefault(cookie_headers[0], cookies) is cookies
    for raw, jsc in zip(js, visit.js_cookie_sets, strict=True):
        assert attrs.setdefault(raw, jsc.parsed) is jsc.parsed
    return [*pairs.values(), *attrs.values()]


def check_load(load, path, corpus, har):
    reqs, resps, js, _methods, _ips = corpus
    js = [] if har else js  # HAR carries no document.cookie records
    visits = load(path)
    txns = visits[0].transactions
    assert len(txns) == len(reqs)
    for txn, req, resp in zip(txns, reqs, resps):
        assert derived(txn) == reference(req, resp, har)
    assert [j.parsed for j in visits[0].js_cookie_sets] == \
        [naiveheaders.parse_set_cookie(a) for a in js]
    if har:  # entries are timed in list order
        ua = next(filter(None, map(first_user_agent, reqs)), None)
        assert visits[0].user_agent_label is (_ua_label(ua) if ua else UaLabel.CHROME_LIKE)
    objects = shared_objects(visits[0], reqs, resps, js)
    again = load(path)
    assert not {id(o) for o in objects} & {id(o) for o in shared_objects(again[0], reqs, resps, js)}
    return visits, again


@settings(max_examples=300, deadline=None)
@given(corpus=corpora())
@example(corpus=([[("Cookie", "a=1; b=2"), ("COOKIE", "a=1"), ("cookie", ";;")]] * 2,
                 [[("Set-Cookie", "a=1; Domain=.Ex.COM"), ("set-cookie", "a=1; Domain=.Ex.COM")]] * 2,
                 ["a=1; Domain=.Ex.COM"], ["GET", "GET"], ["203.0.113.7", "203.0.113.7"]))
@example(corpus=([[("Cookie", " x = y=z ; =v;empty=; é=ü ")], []],
                 [[], [("Content-Type", "text/plain")]], [""], ["GET", "POST"], [None, None]))
def test_jsonl_matches_reference_and_shares_equal_values(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        check_load(load_crawl_jsonl, write_jsonl(Path(tmp), corpus), corpus, har=False)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora())
def test_har_matches_reference_and_shares_equal_values(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        check_load(load_har, write_har(Path(tmp), corpus), corpus, har=True)


odd_elements = st.sampled_from([["a"], ["a", "b", "c"], ["a", 1], [None, "b"], "ab", 5,
                                 {"name": "a"}, {"name": "a", "value": 2}, ("a", "b")])


@settings(max_examples=400, deadline=None)
@given(headers=st.lists(st.one_of(header.map(list), header.map(lambda h: {"name": h[0], "value": h[1]}),
                                  odd_elements), max_size=5),
       response=st.booleans(), har=st.booleans())
def test_read_headers_matches_reference_on_any_list(headers, response, har):
    """The header kind accepts exactly the lists the reference reads, and
    the derived records of an accepted list equal the reference's."""
    ref = naiveheaders._read_headers(headers, response, har)
    _what, _types, check = HAR_HEADERS if har else HEADER_PAIRS
    assert check(headers) is (ref is not None)
    if ref is not None:
        pairs = [(h["name"], h["value"]) for h in headers] if har else headers
        user_agent = None if response else first_user_agent(ref[0])
        assert _derive_headers(pairs, response, _LoadMemo()) == (tuple(ref[1]), ref[2], user_agent)


def test_no_headers_allocate_no_containers():
    assert _derive_headers([], False, _LoadMemo()) == ((), None, None)
    txn = HttpTransaction("https://a.example/")
    assert txn.request_cookies is txn.set_cookies is ()


def test_memo_is_local_to_one_load(tmp_path):
    corpus = ([[("Cookie", "a=1")]], [[("Set-Cookie", "s=1")]], ["j=1"], ["GET"], ["192.0.2.1"])
    first, second = check_load(load_crawl_jsonl, write_jsonl(tmp_path, corpus), corpus, har=False)
    t1, t2 = first[0].transactions[0], second[0].transactions[0]
    assert t1.request_cookies == t2.request_cookies and t1.request_cookies is not t2.request_cookies
    assert t1.set_cookies[0] == t2.set_cookies[0] and t1.set_cookies[0] is not t2.set_cookies[0]
