"""Site-context model: registrable domains, origin relations, cookie parsing.

Registrable-domain extraction follows the public-suffix algorithm
(https://publicsuffix.org/list/) over a read-only rule table.  Hosts are
ASCII/punycode, in the ``canonical_host`` form given where a name enters the
program; no Unicode normalization is done.
"""

from __future__ import annotations

import enum
import ipaddress
import re
from dataclasses import dataclass
from importlib import resources

from .errors import HostIsPublicSuffix, InvalidHostname, SchemaViolation, open_text

_LABEL_RE = re.compile(r"^[a-z0-9_]([a-z0-9_-]{0,61}[a-z0-9_])?$", re.IGNORECASE)

_DEFAULT_PORTS = {"http": 80, "https": 443}


class Relation(enum.Enum):
    SAME_ORIGIN = "same-origin"
    SAME_SITE = "same-site"
    CROSS_SITE = "cross-site"


def is_ip_literal(host: str) -> bool:
    host = host.strip("[]")
    if ":" not in host and not host[-1:].isdigit():  # neither IPv6 nor dotted-decimal IPv4
        return False
    try:
        ipaddress.ip_address(host)
        return True
    except ValueError:
        return False


def canonical_host(name: str) -> str:
    """The one form of a hostname the program compares: lower-case, without
    trailing dots.  A name made only of dots becomes ``""``, no host."""
    return name.lower().rstrip(".")


def label_suffixes(host: str):
    """host itself, then what follows each of its dots, longest first."""
    yield host
    dot = host.find(".")
    while dot >= 0:
        yield host[dot + 1:]
        dot = host.find(".", dot + 1)


def validate_host(host: str) -> str:
    """The canonical form of a DNS name, validated; raises InvalidHostname."""
    if not host:
        raise InvalidHostname("empty hostname")
    host = canonical_host(host)
    if not host or len(host) > 253:
        raise InvalidHostname(f"bad hostname length: {host!r}")
    if is_ip_literal(host):
        return host
    for label in host.split("."):
        if not _LABEL_RE.match(label):
            raise InvalidHostname(f"bad label {label!r} in {host!r}")
    return host


@dataclass(frozen=True)
class Origin:
    """scheme://host:port triple; port defaults from the scheme."""

    scheme: str
    host: str
    port: int = 0

    def __post_init__(self):
        if self.scheme not in _DEFAULT_PORTS:
            raise ValueError(f"unsupported scheme {self.scheme!r}")
        object.__setattr__(self, "host", validate_host(self.host))
        port = self.port or _DEFAULT_PORTS[self.scheme]
        if not 1 <= port <= 65535:
            raise ValueError(f"port out of range: {port}")
        object.__setattr__(self, "port", port)

    @classmethod
    def from_url(cls, url: str) -> "Origin":
        """The URL's origin by ``model.split_url``; a malformed port is a ValueError."""
        from .model import split_url

        host, scheme, port, _ = split_url(url)
        if scheme not in _DEFAULT_PORTS or not host:
            raise InvalidHostname(f"cannot derive origin from {url!r}")
        return cls(scheme, host, port or 0)


class PublicSuffixTable:
    """Parsed public-suffix rules; immutable after load, shareable.

    ``etld_plus_one_or_none`` memoizes its answer per host string, so the
    memo grows with the distinct hosts asked about, never with requests.
    """

    def __init__(self, rules: dict[str, bool]):
        # rule text (without "!") -> is_exception
        self._rules = rules
        self._sites: dict[str, str | None] = {}

    @classmethod
    def from_lines(cls, lines, path=None) -> "PublicSuffixTable":
        """Rules of a list in the public-suffix format.  A normal rule below
        an exception rule (``foo.city.kawasaki.jp`` or ``*.city.kawasaki.jp``
        under ``!city.kawasaki.jp``) raises SchemaViolation: the exception
        would have to prevail over a longer rule, and ``public_suffix`` takes
        the longest."""
        rules: dict[str, bool] = {}
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            line = line.split()[0]  # the format allows trailing whitespace+comments
            if line.startswith("!"):
                rules[line[1:].lower()] = True
            else:
                rules[line.lower()] = False
        for rule, is_exception in rules.items():
            above = None if is_exception else next(filter(rules.get, label_suffixes(rule)), None)
            if above:
                raise SchemaViolation(f"rule {rule!r} lies below the exception rule '!{above}'",
                                      path=path)
        return cls(rules)

    @classmethod
    def from_file(cls, path) -> "PublicSuffixTable":
        with open_text(path) as fh:
            return cls.from_lines(fh, path)

    @classmethod
    def bundled(cls) -> "PublicSuffixTable":
        text = resources.files("cnametrack.data").joinpath("public_suffix_list.dat").read_text("utf-8")
        return cls.from_lines(text.splitlines())

    def public_suffix(self, host: str) -> str:
        """Public suffix of a validated lowercase host, by its prevailing rule.

        One walk over the host's suffixes, longest first, trying each as an
        exact rule and as a wildcard over its parent: an exception rule
        gives the parent at once, the first normal rule is the longest (no
        normal rule lies below an exception: ``from_lines`` rejects such a
        list), and with no rule the suffix is the last label.
        """
        for suffix in label_suffixes(host):
            _label, dot, parent = suffix.partition(".")
            for key in (suffix, "*" + dot + parent):
                is_exception = self._rules.get(key)
                if is_exception is not None:
                    return parent if is_exception else suffix
        return host.rpartition(".")[2]

    def etld_plus_one(self, host: str) -> str:
        """Registrable domain (eTLD+1) of host.

        Raises InvalidHostname for syntactically bad hosts and
        HostIsPublicSuffix when host is itself a suffix or an IP literal.
        """
        host = validate_host(host)
        if is_ip_literal(host):
            raise HostIsPublicSuffix(f"IP literal has no registrable domain: {host}")
        suffix = self.public_suffix(host)
        if host == suffix:
            raise HostIsPublicSuffix(host)
        labels = host.split(".")
        width = len(suffix.split(".")) + 1
        if len(labels) < width:
            raise HostIsPublicSuffix(host)
        return ".".join(labels[-width:])

    def etld_plus_one_or_none(self, host: str) -> str | None:
        """eTLD+1 of host, or None for a bad host, a public suffix or an IP literal."""
        try:
            return self._sites[host]
        except KeyError:
            pass
        try:
            site = self.etld_plus_one(host)
        except (InvalidHostname, HostIsPublicSuffix):
            site = None
        self._sites[host] = site
        return site


def classify_relation(page: Origin, target: Origin, psl: PublicSuffixTable) -> Relation:
    """Same-origin iff scheme/host/port all equal; same-site iff eTLD+1 equal.

    A host without an eTLD+1 (an IP literal, a public suffix such as
    ``github.io``, a single label such as ``localhost``) is its own site:
    it is same-site only with the identical host.
    """
    if page == target:
        return Relation.SAME_ORIGIN
    page_site = psl.etld_plus_one_or_none(page.host)
    target_site = psl.etld_plus_one_or_none(target.host)
    if page_site is None or target_site is None:
        same = page.host == target.host
    else:
        same = page_site == target_site
    return Relation.SAME_SITE if same else Relation.CROSS_SITE


@dataclass(frozen=True)
class CookieAttributes:
    """One parsed cookie: its name, value and whether it is a session cookie.

    Expiry is the only attribute read; ``Domain``, ``Path``, ``Secure`` and
    ``SameSite`` are skipped."""

    name: str
    value: str
    is_session: bool = True


def parse_set_cookie(header: str) -> CookieAttributes:
    """Parse a Set-Cookie header value (or document.cookie assignment string).

    The cookie persists when it carries a non-empty ``Expires`` or a
    ``Max-Age`` that parses as an integer."""
    parts = [p.strip() for p in header.split(";")]
    name, _, value = parts[0].partition("=")
    session = True
    for attr in parts[1:]:
        key, _, val = attr.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key == "expires" and val:
            session = False
        elif key == "max-age" and val:
            try:
                int(val)
            except ValueError:
                continue
            session = False
    return CookieAttributes(name.strip(), value.strip(), session)
