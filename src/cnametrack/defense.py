"""Blocking-outcome evaluation under three defense models: plain filter-list
matching, CNAME-uncloaked matching (extension-style), and DNS-sinkhole domain
blocking (resolver-style).

Plain matching tries only the rules a ``FilterList`` index offers for the
URL's tokens; the sinkhole looks a host's label suffixes up in a
``DomainSet``.  Both accept plain lists too and index them on the fly.  A
transaction's content class and its page's hostname feed the ``$script`` /
``$image`` and ``domain=`` options in every model.  Both DNS-aware models
read a host's CNAME chain from the store's memo (``DnsRecordStore.chain``).
"""

from __future__ import annotations

import enum
import logging
from collections.abc import Iterable
from dataclasses import dataclass
from urllib.parse import urlsplit, urlunsplit

from .detect import Context, PublisherDetection, evidence_transactions
from .dnsgraph import DnsRecordStore
from .filterlist import FilterList, FilterRule, url_tokens
from .model import ContentClass, PageVisit, split_url
from .sitectx import Relation, canonical_host, label_suffixes

log = logging.getLogger(__name__)


class Verdict(enum.Enum):
    BLOCKED = "blocked"
    ALLOWED = "allowed"


@dataclass(frozen=True)
class BlockDecision:
    verdict: Verdict
    matched_rule: FilterRule | None = None
    matched_domain: str | None = None  # sinkhole: the listed domain that hit
    dns_missing: bool = False

    @property
    def blocked(self) -> bool:
        return self.verdict is Verdict.BLOCKED


class UncloakCache:
    """hostname -> (its last CNAME hop or None where uncloaking fails open,
    whether its DNS data is missing), with hit and miss counts.

    Only these per-host facts are kept: each transaction's substituted URL
    is matched on its own, so no verdict depends on which transaction of a
    host came first.
    """

    def __init__(self):
        self._entries: dict[str, tuple[str | None, bool]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, host):
        entry = self._entries.get(host)
        if entry is not None:
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, host, entry: tuple[str | None, bool]):
        self._entries[host] = entry


def match_plain(url: str, relation: Relation, rules: Iterable[FilterRule],
                page_host: str | None = None,
                content: ContentClass | None = None) -> BlockDecision:
    """Adblock-subset semantics on the literal hostname; exceptions beat blocks.

    The first blocking rule in list order that matches decides, unless an
    exception rule matches too; only the index's candidates for the URL's
    tokens are tried.  ``rules`` may be a plain list, indexed on the fly.
    ``page_host`` (the page's hostname) and ``content`` (the transaction's
    content class) feed the ``domain=`` and ``$script``/``$image`` options.
    """
    rules = FilterList.of(rules)
    tokens = url_tokens(url)
    matched = next((rule for rule in rules.candidates(tokens)
                    if rule.matches(url, relation, page_host, content)), None)
    if matched is None:
        return BlockDecision(Verdict.ALLOWED)
    for rule in rules.candidates(tokens, exceptions=True):
        if rule.matches(url, relation, page_host, content):
            return BlockDecision(Verdict.ALLOWED, matched_rule=rule)
    return BlockDecision(Verdict.BLOCKED, matched_rule=matched)


def _substitute_host(url: str, new_host: str) -> str:
    """The URL with ``new_host`` for its host, without userinfo; the port
    stays as written, even one that is not a valid number."""
    parts = urlsplit(url)
    port = parts.netloc.rpartition("@")[2].rpartition("]")[2].partition(":")[2]
    netloc = f"{new_host}:{port}" if port else new_host
    return urlunsplit((parts.scheme, netloc, parts.path, parts.query, parts.fragment))


def match_uncloaked(
    url: str,
    relation: Relation,
    rules: Iterable[FilterRule],
    dns: DnsRecordStore,
    cache: UncloakCache,
    page_host: str | None = None,
    content: ContentClass | None = None,
) -> BlockDecision:
    """Plain match first; when allowed, re-match with the last CNAME hop
    substituted for the hostname.  Fail-open, with ``dns_missing`` set, when
    DNS data is missing or the chain cycles."""
    rules = FilterList.of(rules)
    plain = match_plain(url, relation, rules, page_host, content)
    return _uncloaked(plain, url, split_url(url)[0], relation, rules, dns, cache, page_host, content)


def _uncloaked(plain: BlockDecision, url, host, relation, rules, dns, cache, page_host, content):
    """``match_uncloaked`` given the URL's plain verdict, so it is matched
    once, and the URL's canonical host."""
    if plain.blocked:
        return plain
    if not host:
        return BlockDecision(Verdict.ALLOWED)
    entry = cache.get(host)
    if entry is None:
        entry = _last_hop(host, dns)
        cache.put(host, entry)
    last_hop, dns_missing = entry
    if last_hop is None:
        return BlockDecision(Verdict.ALLOWED, dns_missing=dns_missing)
    return match_plain(_substitute_host(url, last_hop), relation, rules, page_host, content)


def _last_hop(host: str, dns: DnsRecordStore) -> tuple[str | None, bool]:
    """(the host's last CNAME hop or None, whether DNS data is missing)."""
    if host not in dns:
        log.warning("no DNS coverage for %s; uncloaked match fails open", host)
        return None, True
    chain = dns.chain(host)
    return (None, True) if chain is None else (chain.last_hop, False)


class DomainSet:
    """Sinkhole domains, made canonical once and looked up through the label
    suffixes of a canonical host."""

    def __init__(self, domains: Iterable[str]):
        self._rank: dict[str, int] = {}
        for rank, dom in enumerate(domains):
            self._rank.setdefault(canonical_host(dom), rank)

    def hit(self, host: str) -> str | None:
        """The listed domain equal to ``host`` (canonical) or to one of its
        label suffixes; when several are, the one listed first."""
        return min((s for s in label_suffixes(host) if s in self._rank),
                   key=self._rank.__getitem__, default=None)


def match_sinkhole(hostname: str, dns: DnsRecordStore, domain_rules: Iterable[str]) -> BlockDecision:
    """Resolver-level blocking: the hostname or ANY chain hop matching a
    listed domain (suffix semantics) sinks the query.  ``domain_rules`` may
    be a plain list, indexed on the fly."""
    domains = domain_rules if isinstance(domain_rules, DomainSet) else DomainSet(domain_rules)
    hostname = canonical_host(hostname)
    hit = domains.hit(hostname)
    if hit:
        return BlockDecision(Verdict.BLOCKED, matched_domain=hit)
    chain = dns.chain(hostname)
    for hop in chain.hops if chain is not None else ():
        hit = domains.hit(hop)
        if hit:
            return BlockDecision(Verdict.BLOCKED, matched_domain=hit)
    return BlockDecision(Verdict.ALLOWED)


def pure_domain_rules(rules: list[FilterRule]) -> list[str]:
    """Domains of ``||domain^``-style rules, usable as a sinkhole blocklist."""
    return sorted({r.domain for r in rules if r.pure_domain and not r.is_exception})


@dataclass
class TransactionVerdict:
    visit_id: str
    index: int
    url: str
    tracker_id: str
    plain: bool
    uncloaked: bool
    sinkhole: bool
    dns_missing: bool = False


@dataclass
class DefenseReport:
    """Per tracker x defense blocked fractions plus per-transaction audit rows."""

    fractions: dict[str, dict[str, float]]
    counts: dict[str, int]
    verdicts: list[TransactionVerdict]
    coverage_warnings: int = 0


def compare_defenses(
    corpus: list[PageVisit],
    detections: list[PublisherDetection],
    rules: Iterable[FilterRule],
    dns: DnsRecordStore,
) -> DefenseReport:
    """Fraction of each tracker's evidence transactions blocked per defense."""
    rules = FilterList.of(rules)
    domains = DomainSet(pure_domain_rules(rules))
    cache = UncloakCache()
    verdicts: list[TransactionVerdict] = []
    tally: dict[str, dict[str, int]] = {}
    counts: dict[str, int] = {}
    warnings = 0
    ordered = sorted(detections, key=PublisherDetection.sort_key)
    for det, ref, visit, txn in evidence_transactions(corpus, ordered):
        relation = Relation.SAME_SITE if det.context is Context.SAME_SITE else Relation.CROSS_SITE
        content = txn.content_type_class
        plain = match_plain(txn.request_url, relation, rules, visit.page_host, content)
        uncloaked = _uncloaked(plain, txn.request_url, txn.host, relation, rules, dns, cache,
                               visit.page_host, content)
        sink = match_sinkhole(txn.host, dns, domains)
        if uncloaked.dns_missing:
            warnings += 1
        verdicts.append(TransactionVerdict(
            ref.visit_id, ref.index, ref.url, det.tracker_id,
            plain.blocked, uncloaked.blocked, sink.blocked, uncloaked.dns_missing,
        ))
        t = tally.setdefault(det.tracker_id, {"plain": 0, "uncloaked": 0, "sinkhole": 0})
        counts[det.tracker_id] = counts.get(det.tracker_id, 0) + 1
        t["plain"] += plain.blocked
        t["uncloaked"] += uncloaked.blocked
        t["sinkhole"] += sink.blocked
    fractions = {
        tracker: {d: t[d] / counts[tracker] for d in ("plain", "uncloaked", "sinkhole")}
        for tracker, t in sorted(tally.items())
    }
    return DefenseReport(fractions, counts, verdicts, warnings)
