"""Domain model for captured crawl data and tracker signatures.

Request, page, script and initiator URLs are all split by ``split_url``.
Most URLs of a corpus share a few ``scheme://authority`` prefixes, so a URL
of plain printable ASCII (no whitespace, ``@``, ``[``, ``]`` or ``\\``) whose
authority is followed by nothing or by ``/``, ``?`` or ``#`` is matched by
one regex, and ``urlsplit`` runs once per distinct prefix (memoized, bounded)
to give its host, scheme and port; path and query come from the rest of the
URL.  Every other URL takes the full ``urlsplit`` path, so both give the
same fields, and the same ``ValueError``, for every string.
"""

from __future__ import annotations

import enum
import fnmatch
import ipaddress
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from urllib.parse import urlsplit

from .errors import excerpt
from .sitectx import CookieAttributes, canonical_host

POST_BODY_PREFIX_LIMIT = 64 * 1024
POST_BODY_TRUNCATE_THRESHOLD = 1024 * 1024


class ContentClass(enum.Enum):
    SCRIPT = "script"
    IMAGE = "image"
    HTML = "html"
    VIDEO = "video"
    OTHER = "other"


class UaLabel(enum.Enum):
    CHROME_LIKE = "chrome"
    SAFARI_LIKE = "safari"
    OTHER = "other"


def classify_content_type(mime: str | None) -> ContentClass:
    mime = (mime or "").split(";")[0].strip().lower()
    if "javascript" in mime or "ecmascript" in mime:
        return ContentClass.SCRIPT
    if mime.startswith("image/"):
        return ContentClass.IMAGE
    if mime in ("text/html", "application/xhtml+xml"):
        return ContentClass.HTML
    if mime.startswith("video/"):
        return ContentClass.VIDEO
    return ContentClass.OTHER


# Characters excluded anywhere in an ASCII URL.  (A class reaching past ASCII
# would take about 15 ms to compile at import.)
_URL_CHARS = r"\x00-\x20\x7f@\[\\\]"
_PLAIN_URL = re.compile(
    rf"([A-Za-z][A-Za-z0-9+.\-]*://[^{_URL_CHARS}/?#]*)(?:[/?#][^{_URL_CHARS}]*)?")


def _urlsplit_fields(url: str) -> tuple[str, str, int | None, str]:
    """(host, scheme, port, path_and_query) by ``urlsplit``: host canonical,
    scheme lower-cased, both interned; port None when absent, -1 when malformed."""
    parts = urlsplit(url)
    host = sys.intern(canonical_host(parts.hostname or ""))
    scheme = sys.intern(parts.scheme.lower())
    try:  # a netloc without ":" has no port; skip parsing it again
        port = parts.port if ":" in parts.netloc else None
    except ValueError:  # not a number, or out of range
        port = -1
    path = parts.path or "/"
    return host, scheme, port, f"{path}?{parts.query}" if parts.query else path


@lru_cache(maxsize=8192)
def _authority(prefix: str) -> tuple[str, str, int | None]:
    return _urlsplit_fields(prefix)[:3]


def split_url(url: str) -> tuple[str, str, int | None, str]:
    """(host, scheme, port, path_and_query) of a URL, as ``_urlsplit_fields``
    gives them; see the module docstring for the memoized fast path."""
    m = _PLAIN_URL.fullmatch(url) if url.isascii() else None
    if m is None:
        return _urlsplit_fields(url)
    end = m.end(1)
    host, scheme, port = _authority(url[:end])
    rest = url[end:].partition("#")[0]
    path, _, query = rest.partition("?")
    if query:
        return host, scheme, port, rest if path else "/" + rest
    return host, scheme, port, path or "/"


@dataclass(slots=True)
class HttpTransaction:
    """One captured request/response pair: what the analyses read of it.

    The request URL is parsed once, at construction, into ``host``,
    ``scheme``, ``port`` and ``path_and_query``; host and scheme are
    interned because a corpus repeats them across many transactions.
    ``port`` is the URL's explicit port: None when absent, -1 when malformed.

    Of the headers only what they derive is kept: the request cookies and
    the response's Set-Cookie records, immutable tuples, ``()`` when there
    are none, so a transaction without them allocates no containers.  The
    method, the status and the raw headers are checked at load but not kept.
    The loaders share equal cookie pairs, cookie tuples and
    ``CookieAttributes`` between the transactions of one load (see
    ``ingest``); replace a field, never mutate what it holds.
    """

    request_url: str
    request_cookies: tuple[tuple[str, str], ...] = ()
    set_cookies: tuple[CookieAttributes, ...] = ()
    post_body: str | None = None
    post_body_truncated: bool = False
    post_content_type: str | None = None
    response_size: int = 0
    content_type_class: ContentClass = ContentClass.OTHER
    remote_ip: str | None = None
    initiators: tuple[str, ...] = ()
    host: str = field(init=False)
    scheme: str = field(init=False)
    port: int | None = field(init=False)
    path_and_query: str = field(init=False)

    def __post_init__(self):
        self.host, self.scheme, self.port, self.path_and_query = split_url(self.request_url)

    def store_post_body(self, body: str | None):
        """Bound large POST bodies: keep a searchable prefix, flagged truncated."""
        if body is not None and len(body) > POST_BODY_TRUNCATE_THRESHOLD:
            self.post_body = body[:POST_BODY_PREFIX_LIMIT]
            self.post_body_truncated = True
        else:
            self.post_body = body


@dataclass
class JsCookieSet:
    """One document.cookie assignment captured by script instrumentation."""

    parsed: CookieAttributes
    stack: tuple[str, ...] = ()

    @property
    def script_origin(self) -> str | None:
        """Host of the script at the top of the stack trace."""
        if not self.stack:
            return None
        return split_url(self.stack[0])[0]


@dataclass(slots=True)
class PageVisit:
    """One page load: its transactions and instrumentation records.

    The page URL is parsed once, at construction, into ``page_host`` and
    ``page_scheme``.
    """

    page_url: str
    visit_id: str
    site: str | None = None  # eTLD+1 of the page, filled by the loader when psl given
    user_agent_label: UaLabel = UaLabel.CHROME_LIKE
    transactions: list[HttpTransaction] = field(default_factory=list)
    js_cookie_sets: list[JsCookieSet] = field(default_factory=list)
    page_host: str = field(init=False)
    page_scheme: str = field(init=False)

    def __post_init__(self):
        self.page_host, self.page_scheme, _, _ = split_url(self.page_url)


def _network(cidr: str):
    try:
        return ipaddress.ip_network(cidr, strict=False)
    except ValueError:  # ipaddress's own message echoes the whole value
        raise ValueError(f"{excerpt(cidr)} does not appear to be an IPv4 or IPv6 network") from None


@dataclass(frozen=True)
class TrackerSignature:
    """Declarative per-tracker matcher."""

    tracker_id: str
    cname_suffixes: tuple[str, ...] = ()
    cidr_ranges: tuple[str, ...] = ()
    path_patterns: tuple[str, ...] = ()
    # cidr_ranges parsed once, for ``IpPool.add_signatures``; one that does not parse is a ValueError
    networks: tuple[ipaddress.IPv4Network | ipaddress.IPv6Network, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.cname_suffixes and not self.cidr_ranges:
            raise ValueError(f"{excerpt(self.tracker_id)}: needs cname_suffixes or cidr_ranges")
        if not self.path_patterns:
            raise ValueError(f"{excerpt(self.tracker_id)}: path_patterns must be non-empty")
        object.__setattr__(self, "networks", tuple(map(_network, self.cidr_ranges)))

    @cached_property
    def path_match(self):
        """Match a path+query against any of the ``path_patterns`` (case-sensitive
        ``fnmatch``): one regex over every pattern, compiled on first use."""
        return re.compile("|".join(fnmatch.translate(p) for p in self.path_patterns)).match


def signatures_by_tracker(sigs: list[TrackerSignature]) -> dict[str, list[TrackerSignature]]:
    """Each tracker id's signatures, in list order: signatures sharing an id
    are one tracker.  Ids come in the order they first appear."""
    by_tracker: dict[str, list[TrackerSignature]] = {}
    for sig in sigs:
        by_tracker.setdefault(sig.tracker_id, []).append(sig)
    return by_tracker
