"""Adblock-style filter list parsing and token-indexed network-rule matching.

Supported subset: domain anchors (``||example.com^``), plain URL patterns
with ``*`` wildcards, ``^`` separators and ``|`` anchors (a trailing ``|``
anchors the end of the URL, also after a domain anchor), exception rules
(``@@`` prefix) and the options ``third-party``, ``~third-party`` /
``first-party``, ``script`` / ``image`` (the transaction's content class)
and ``domain=`` (the page hostname, with suffix semantics).  Cosmetic rules,
regex rules and any rule carrying an unsupported option are kept but marked
inert: they have no pattern and match nothing.

``parse_rule`` is the one place a rule's facts are decided; matching, the
index and the sinkhole list read only the ``FilterRule`` fields it sets.
A rule is ``pure_domain`` when it is ``||domain`` or ``||domain^`` with no
option: only those (less the exceptions) feed the sinkhole list.

``load_filter_list`` returns a ``FilterList``: the rules in file order plus
an index from one *bounded* literal token of each rule to that rule.  A
token is a run of ``[a-z0-9%]``; it is bounded when nothing the rule can
match lets a token character touch it on either side, so every URL the rule
matches contains it as a whole token.  ``FilterList.candidates`` returns,
in rule order, only the rules that can match a URL; each candidate is still
confirmed by ``FilterRule.matches``, whose regex is compiled on first use.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .model import ContentClass
from .sitectx import Relation, canonical_host

log = logging.getLogger(__name__)

_SEPARATOR = r"(?:[^a-zA-Z0-9_.%-]|$)"
_SCHEME = r"^[a-z][a-z0-9+.-]*://"

SUPPORTED_OPTIONS = {"third-party", "~third-party", "first-party", "script", "image"}
_TYPE_OPTIONS = {"script": ContentClass.SCRIPT, "image": ContentClass.IMAGE}

_TOKEN = re.compile(r"[a-z0-9%]+")
_BOUNDED_TOKEN = re.compile(r"(?<![a-z0-9%*])[a-z0-9%]+(?![a-z0-9%*])")
_WILDCARDS = re.compile(r"([*^])")
_DOMAIN_ANCHOR = re.compile(r"\|\|([a-z0-9_.-]+)", re.IGNORECASE)


def _host_in(host: str, domains: tuple[str, ...]) -> bool:
    return any(host == d or host.endswith("." + d) for d in domains)


@dataclass
class FilterRule:
    raw: str
    is_exception: bool = False  # "@@" prefix
    domain: str | None = None  # the host of a "||" domain anchor, canonical
    pure_domain: bool = False  # "||domain" or "||domain^", no option
    options: frozenset[str] = frozenset()
    content_types: frozenset[ContentClass] = frozenset()  # $script / $image
    domain_include: tuple[str, ...] = ()  # domain= values, canonical
    domain_exclude: tuple[str, ...] = ()  # domain=~ values, "~" removed, canonical
    pattern: str | None = None  # regex source; None for inert rules
    token: str | None = None  # bounded literal token the index keys on

    @property
    def inert(self) -> bool:
        return self.pattern is None

    @cached_property
    def regex(self) -> re.Pattern | None:
        return None if self.pattern is None else re.compile(self.pattern, re.IGNORECASE)

    def matches(self, url: str, relation: Relation, page_host: str | None = None,
                content: ContentClass | None = None) -> bool:
        """``page_host`` is the page's hostname; ``content`` the transaction's
        content class (a ``$script``/``$image`` rule matches nothing without it)."""
        if self.pattern is None:
            return False
        if "third-party" in self.options and relation is not Relation.CROSS_SITE:
            return False
        if "first-party" in self.options and relation is Relation.CROSS_SITE:
            return False
        if self.content_types and content not in self.content_types:
            return False
        if self.domain_include or self.domain_exclude:
            if page_host is None:
                return False
            if self.domain_include and not _host_in(page_host, self.domain_include):
                return False
            if _host_in(page_host, self.domain_exclude):
                return False
        return self.regex.search(url) is not None


def _translate_pattern(pattern: str) -> str:
    return "".join(".*" if part == "*" else _SEPARATOR if part == "^" else re.escape(part)
                   for part in _WILDCARDS.split(pattern))


def _bounded_token(shape: str) -> str | None:
    """The longest bounded token of a rule's shape (the first of equals), or None.

    ``shape`` is the matched text as the regex sees it, framed by ``^``
    where the edge forces a token boundary and ``*`` where it does not.  A
    non-ASCII character counts as ``*``: under ``re.IGNORECASE`` it can match
    an ASCII token character (U+017F, the long s, matches ``s``; U+212A, the
    Kelvin sign, matches ``k``).  Every other character that is not a token
    character is a literal the URL must contain there, or ``^``, so it is a
    boundary.
    """
    shape = "".join(ch.lower() if ch.isascii() else "*" for ch in shape)
    return max(_BOUNDED_TOKEN.findall(shape), key=len, default=None)


def parse_rule(line: str) -> FilterRule | None:
    """Parse one non-comment, non-cosmetic line; None when unparseable."""
    raw = line
    is_exception = line.startswith("@@")
    if is_exception:
        line = line[2:]

    options: set[str] = set()
    domain_option: list[str] = []
    inert = False
    if "$" in line:
        line, _, opts = line.rpartition("$")
        for opt in opts.split(","):
            opt = opt.strip()
            if not opt:
                continue
            if opt.startswith("domain="):
                domain_option = opt[len("domain="):].split("|")
            elif opt == "~third-party":
                options.add("first-party")
            elif opt in SUPPORTED_OPTIONS:
                options.add(opt)
            else:
                inert = True

    anchor = _DOMAIN_ANCHOR.match(line)
    if not line or (anchor is None and line.startswith("||")):
        return None
    if inert or (len(line) > 2 and line[0] == line[-1] == "/"):  # regex rules are unsupported
        return FilterRule(raw, is_exception)

    anchored_end = line.endswith("|")
    if anchor:
        domain = canonical_host(anchor[1])
        rest = line[anchor.end():]
        body = rest.rstrip("|") if anchored_end else rest or "^"
        # the domain starts after "://" or a "." label separator
        head, start = _SCHEME + r"(?:[^/?#]*\.)?" + re.escape(domain), "^" + domain
    else:
        domain = rest = None
        body = line.strip("|")
        head, start = ("^", "^") if line.startswith("|") else ("", "*")
    return FilterRule(
        raw,
        is_exception,
        domain,
        pure_domain=rest in ("", "^") and not options and not domain_option,
        options=frozenset(options),
        content_types=frozenset(_TYPE_OPTIONS[o] for o in options if o in _TYPE_OPTIONS),
        domain_include=tuple(canonical_host(d) for d in domain_option if not d.startswith("~")),
        domain_exclude=tuple(canonical_host(d[1:]) for d in domain_option if d.startswith("~")),
        pattern=head + _translate_pattern(body) + ("$" if anchored_end else ""),
        token=_bounded_token(start + body + ("^" if anchored_end else "*")),
    )


def url_tokens(url: str) -> frozenset[str] | None:
    """The URL's tokens, or None for a non-ASCII URL (every rule is then a
    candidate: case-insensitive matching relates ASCII letters to non-ASCII
    ones that ``str.lower`` leaves apart)."""
    if not url.isascii():
        return None
    return frozenset(_TOKEN.findall(url.lower()))


class _Bucket:
    """Rule positions of one kind (blocking or exception), keyed by token."""

    def __init__(self):
        self.by_token: dict[str, list[int]] = {}
        self.fallback: list[int] = []  # rules without a bounded token
        self.every: list[int] = []

    def add(self, pos: int, token: str | None):
        self.every.append(pos)
        if token is None:
            self.fallback.append(pos)
        else:
            self.by_token.setdefault(token, []).append(pos)

    def positions(self, tokens: frozenset[str] | None) -> list[int]:
        if tokens is None:
            return self.every
        hit = set(self.fallback)
        for tok in tokens:
            found = self.by_token.get(tok)
            if found:
                hit.update(found)
        return sorted(hit)


class FilterList(Sequence):
    """Filter rules in list order, indexed by their bounded tokens.

    Inert rules stay in the sequence (and in ``FilterListStats``) but are
    never candidates, as they match nothing.
    """

    def __init__(self, rules: Iterable[FilterRule]):
        self.rules = list(rules)
        self._blocking = _Bucket()
        self._exceptions = _Bucket()
        for pos, rule in enumerate(self.rules):
            if not rule.inert:
                bucket = self._exceptions if rule.is_exception else self._blocking
                bucket.add(pos, rule.token)

    @classmethod
    def of(cls, rules: Iterable[FilterRule]) -> FilterList:
        """``rules`` itself when already indexed, else a new index over it."""
        return rules if isinstance(rules, cls) else cls(rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, i):
        return self.rules[i]

    def __iter__(self):
        return iter(self.rules)

    def candidates(self, tokens: frozenset[str] | None,
                   exceptions: bool = False) -> list[FilterRule]:
        """Blocking (or exception) rules that can match a URL with these
        ``url_tokens``, in list order."""
        bucket = self._exceptions if exceptions else self._blocking
        return [self.rules[pos] for pos in bucket.positions(tokens)]


@dataclass
class FilterListStats:
    rules: int = 0
    inert: int = 0


def load_filter_list(path) -> tuple[FilterList, FilterListStats]:
    """Parse a filter list file; never fatal, per-line diagnostics only."""
    rules: list[FilterRule] = []
    stats = FilterListStats()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("!") or line.startswith("["):
                continue  # blank, comment or header
            if "##" in line or "#@#" in line or "#?#" in line:
                continue  # cosmetic
            rule = parse_rule(line)
            if rule is None:
                log.debug("%s:%d: unparseable rule %r", path, lineno, line)
                continue
            if rule.inert:
                stats.inert += 1
                log.debug("%s:%d: unsupported options, rule inert: %r", path, lineno, line)
            rules.append(rule)
            stats.rules += 1
    return FilterList(rules), stats
