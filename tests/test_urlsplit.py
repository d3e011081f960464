"""The memoized URL splitter against the plain ``urlsplit`` reference.

``model.split_url`` answers plain ``scheme://authority`` URLs from a memo
and sends every other string to ``urlsplit``; ``tests/naiveurl.py`` keeps the
``urlsplit``-only parsing.  Both must give the same host, scheme, port and
path+query (or the same ``ValueError``) for every string.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnametrack.model import HttpTransaction, JsCookieSet, PageVisit, _authority, split_url
from naiveurl import NaivePageVisit, NaiveTransaction, naive_script_origin

EDGES = ["", " ", "\t", "\x01", "\n", "\x7f", "\u00a0"]
SCHEMES = ["http", "https", "HTTP", "hTTpS", "ftp", "a+b.c-d", "1http", "ht tp", "h\u00e9", "mailto", ""]
SEPS = ["://", ":/", ":", "//", ":///", ""]
USERINFO = ["", "u@", "u:p@", "@", "a@b@"]
HOSTS = ["h", "example.com", "Ex.AMPLE.Com", "h.", "", "1.2.3.4", "[::1]", "[fe80::1%eth0]",
         "[FE80::A%Eth0]", "[::1", "::1]", "[v1.x]", "ex\\ample", "\u00e9.com", "xn--e.com",
         "a b", "h\t.com", "\u2100.com", "h%41"]
PORTS = ["", ":", ":x", ":80", ":8080", ":99999", ":0", ":65535", ":-1", "::80", ":\u0661"]
PATHS = ["", "/", "/a/b", "\\x", "/\\x", "/\u00e4", "/a b", "/a\tb", "/\x00", "//x", "/a@b",
         "/[x]", "/%41", "/A/B.js"]
TAILS = ["", "?", "?q=1", "#", "#f", "?a#b", "#a?b", "??", "?a?b", "?a=[1]", "#@", "?#", "#?"]

url_parts = st.tuples(*(st.sampled_from(choices) for choices in
                        (EDGES, SCHEMES, SEPS, USERINFO, HOSTS, PORTS, PATHS, TAILS, EDGES)))
url_noise = st.text(alphabet=st.sampled_from(list("hHtp:/?#@[]\\.1 \t%\u00e9x")), max_size=24)

PROTOTYPE_MUTANT_CASES = [
    "http://u@h/",            # host is h, not the userinfo
    "http://[::1]:8080/x",    # host is ::1, port 8080
    "http://u:p@[::1]:81/?#",
]


def outcome(fn, url):
    try:
        return fn(url)
    except ValueError as exc:
        return ("ValueError", str(exc))


def fast_fields(url):
    txn = HttpTransaction(url)
    page = PageVisit(url, "v")
    script = JsCookieSet(None, (url,)).script_origin
    return (txn.host, txn.scheme, txn.port, txn.path_and_query, page.page_host, page.page_scheme,
            script, split_url(url))


def naive_fields(url):
    txn = NaiveTransaction(url)
    page = NaivePageVisit(url)
    return (txn.host, txn.scheme, txn.port, txn.path_and_query, page.page_host, page.page_scheme,
            naive_script_origin(url), (txn.host, txn.scheme, txn.port, txn.path_and_query))


def check(url):
    assert outcome(fast_fields, url) == outcome(naive_fields, url), repr(url)


@settings(max_examples=1500, deadline=None)
@given(parts=url_parts)
@example(parts=("", "http", "://", "u@", "h", "", "/", "", ""))
@example(parts=("", "http", "://", "", "[::1]", ":8080", "/x", "", ""))
def test_split_matches_urlsplit_on_assembled_urls(parts):
    check("".join(parts))


@settings(max_examples=800, deadline=None)
@given(prefix=st.sampled_from(["", "http://", "https://h", "HTTP://H.com:8", "mailto:"]), noise=url_noise)
def test_split_matches_urlsplit_on_noise(prefix, noise):
    check(prefix + noise)


@settings(max_examples=300, deadline=None)
@given(url=st.text(max_size=40))
def test_split_matches_urlsplit_on_any_text(url):
    check(url)


@pytest.mark.parametrize("url", PROTOTYPE_MUTANT_CASES + [
    "HTTPS://WWW.Example.COM:443/A?B#C", "http://h", "http://h?x", "http://h#x?y", "http://h:/",
    "http://h:x/", "http://h:99999/", "mailto:a@b.c", "//h/x", "http:/h/x", "http://h/a\tb",
    " http://h/", "http://h/\u00e9", "http://h\\x/y", "http://h/?", "http://h/??a",
])
def test_split_matches_urlsplit_on_listed_urls(url):
    check(url)


def test_plain_urls_share_one_memoized_authority():
    _authority.cache_clear()
    for path in ("/a", "/b?x=1", "?y", "#z", ""):
        split_url("https://memo.example:8443" + path)
    info = _authority.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    assert info.maxsize is not None  # bounded
