"""Blocking-outcome evaluation under three defense models: plain filter-list
matching, CNAME-uncloaked matching (extension-style), and DNS-sinkhole domain
blocking (resolver-style)."""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from urllib.parse import urlsplit, urlunsplit

from .detect import Context, PublisherDetection, evidence_transactions, page_site
from .dnsgraph import DnsRecordStore, resolve_chain
from .errors import CnameCycle
from .filterlist import FilterRule
from .model import PageVisit
from .sitectx import PublicSuffixTable, Relation

log = logging.getLogger(__name__)


class Defense(enum.Enum):
    PLAIN = "plain"
    UNCLOAKED = "uncloaked"
    SINKHOLE = "sinkhole"


class Verdict(enum.Enum):
    BLOCKED = "blocked"
    ALLOWED = "allowed"


@dataclass(frozen=True)
class BlockDecision:
    verdict: Verdict
    defense: Defense
    matched_rule: FilterRule | None = None
    matched_domain: str | None = None  # sinkhole: the listed domain that hit
    uncloak_cache_hit: bool = False
    dns_missing: bool = False

    @property
    def blocked(self) -> bool:
        return self.verdict is Verdict.BLOCKED


class UncloakCache:
    """hostname -> (terminal eTLD+1 or None, substituted-match verdict)."""

    def __init__(self):
        self._entries: dict[str, tuple[str | None, Verdict, FilterRule | None]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, host):
        entry = self._entries.get(host)
        if entry is not None:
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, host, last_hop, verdict, rule):
        self._entries[host] = (last_hop, verdict, rule)


def match_plain(url: str, relation: Relation, rules: list[FilterRule],
                page_site: str | None = None) -> BlockDecision:
    """Adblock-subset semantics on the literal hostname; exceptions beat blocks."""
    matched: FilterRule | None = None
    for rule in rules:
        if rule.is_exception or rule.inert:
            continue
        if rule.matches(url, relation, page_site):
            matched = rule
            break
    if matched is None:
        return BlockDecision(Verdict.ALLOWED, Defense.PLAIN)
    for rule in rules:
        if rule.is_exception and rule.matches(url, relation, page_site):
            return BlockDecision(Verdict.ALLOWED, Defense.PLAIN, matched_rule=rule)
    return BlockDecision(Verdict.BLOCKED, Defense.PLAIN, matched_rule=matched)


def _substitute_host(url: str, new_host: str) -> str:
    parts = urlsplit(url)
    netloc = new_host if parts.port is None else f"{new_host}:{parts.port}"
    return urlunsplit((parts.scheme, netloc, parts.path, parts.query, parts.fragment))


def match_uncloaked(
    url: str,
    relation: Relation,
    rules: list[FilterRule],
    dns: DnsRecordStore,
    cache: UncloakCache,
    page_site: str | None = None,
    max_depth: int = 10,
) -> BlockDecision:
    """Plain match first; when allowed, re-match with the last CNAME hop
    substituted for the hostname.  Fail-open when DNS data is missing."""
    plain = match_plain(url, relation, rules, page_site)
    if plain.blocked:
        return BlockDecision(Verdict.BLOCKED, Defense.UNCLOAKED, matched_rule=plain.matched_rule)
    host = (urlsplit(url).hostname or "").lower()
    if not host:
        return BlockDecision(Verdict.ALLOWED, Defense.UNCLOAKED)
    cached = cache.get(host)
    if cached is not None:
        last_hop, verdict, rule = cached
        return BlockDecision(verdict, Defense.UNCLOAKED, matched_rule=rule, uncloak_cache_hit=True)
    if host not in dns:
        log.warning("no DNS coverage for %s; uncloaked match fails open", host)
        cache.put(host, None, Verdict.ALLOWED, None)
        return BlockDecision(Verdict.ALLOWED, Defense.UNCLOAKED, dns_missing=True)
    try:
        chain = resolve_chain(host, dns, max_depth)
    except CnameCycle:
        cache.put(host, None, Verdict.ALLOWED, None)
        return BlockDecision(Verdict.ALLOWED, Defense.UNCLOAKED, dns_missing=True)
    if not chain.hops:
        cache.put(host, None, Verdict.ALLOWED, None)
        return BlockDecision(Verdict.ALLOWED, Defense.UNCLOAKED)
    substituted = _substitute_host(url, chain.last_hop)
    re_match = match_plain(substituted, relation, rules, page_site)
    cache.put(host, chain.last_hop, re_match.verdict, re_match.matched_rule)
    return BlockDecision(re_match.verdict, Defense.UNCLOAKED, matched_rule=re_match.matched_rule)


def _domain_suffix_hit(host: str, domain_rules: list[str]) -> str | None:
    host = host.lower().rstrip(".")
    for dom in domain_rules:
        dom = dom.lower().rstrip(".")
        if host == dom or host.endswith("." + dom):
            return dom
    return None


def match_sinkhole(hostname: str, dns: DnsRecordStore, domain_rules: list[str],
                   max_depth: int = 10) -> BlockDecision:
    """Resolver-level blocking: the hostname or ANY chain hop matching a
    listed domain (suffix semantics) sinks the query."""
    hostname = hostname.lower().rstrip(".")
    hit = _domain_suffix_hit(hostname, domain_rules)
    if hit:
        return BlockDecision(Verdict.BLOCKED, Defense.SINKHOLE, matched_domain=hit)
    try:
        chain = resolve_chain(hostname, dns, max_depth)
    except CnameCycle:
        return BlockDecision(Verdict.ALLOWED, Defense.SINKHOLE)
    for hop in chain.hops:
        hit = _domain_suffix_hit(hop, domain_rules)
        if hit:
            return BlockDecision(Verdict.BLOCKED, Defense.SINKHOLE, matched_domain=hit)
    return BlockDecision(Verdict.ALLOWED, Defense.SINKHOLE)


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
    rules: list[FilterRule],
    dns: DnsRecordStore,
    psl: PublicSuffixTable,
    domain_rules: list[str] | None = None,
    max_depth: int = 10,
) -> DefenseReport:
    """Fraction of each tracker's evidence transactions blocked per defense."""
    if domain_rules is None:
        domain_rules = pure_domain_rules(rules)
    cache = UncloakCache()
    verdicts: list[TransactionVerdict] = []
    tally: dict[str, dict[str, int]] = {}
    counts: dict[str, int] = {}
    warnings = 0
    ordered = sorted(detections, key=PublisherDetection.sort_key)
    for det, ref, visit, txn in evidence_transactions(corpus, ordered):
        relation = Relation.SAME_SITE if det.context is Context.SAME_SITE else Relation.CROSS_SITE
        site = page_site(visit, psl)
        plain = match_plain(txn.request_url, relation, rules, site)
        uncloaked = match_uncloaked(txn.request_url, relation, rules, dns, cache, site, max_depth)
        sink = match_sinkhole(txn.host, dns, domain_rules, max_depth)
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
