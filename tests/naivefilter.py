"""Reference filter matching: one linear scan over every rule or domain.

This is ``match_plain`` and the sinkhole's domain scan as they stood before
the token index in ``cnametrack.filterlist`` and the label-suffix set in
``cnametrack.defense`` replaced them, and ``bounded_token``, the
per-character token scan that the parser's one regex replaced, kept as the
oracles for the differential tests in tests/test_filterindex.py.  Only the
``page_host`` and ``content`` arguments, passed through to
``FilterRule.matches``, are new.  Every URL is matched against every rule;
do not use it outside tests.
"""

from __future__ import annotations

import re

from cnametrack.defense import BlockDecision, Verdict
from cnametrack.dnsgraph import DnsRecordStore, resolve_chain
from cnametrack.errors import CnameCycle
from cnametrack.filterlist import FilterRule
from cnametrack.model import ContentClass
from cnametrack.sitectx import Relation

_TOKEN = re.compile(r"[a-z0-9%]+")


def bounded_token(shape: str) -> str | None:
    """The longest bounded token of a rule's shape (see
    ``cnametrack.filterlist._bounded_token``), one character at a time."""
    shape = "".join(ch.lower() if ch.isascii() else "*" for ch in shape)
    best = None
    for m in _TOKEN.finditer(shape):
        if shape[m.start() - 1] == "*" or shape[m.end()] == "*":
            continue
        if best is None or len(m.group()) > len(best):
            best = m.group()
    return best


def match_plain(url: str, relation: Relation, rules: list[FilterRule],
                page_host: str | None = None,
                content: ContentClass | None = None) -> BlockDecision:
    matched: FilterRule | None = None
    for rule in rules:
        if rule.is_exception or rule.inert:
            continue
        if rule.matches(url, relation, page_host, content):
            matched = rule
            break
    if matched is None:
        return BlockDecision(Verdict.ALLOWED)
    for rule in rules:
        if rule.is_exception and rule.matches(url, relation, page_host, content):
            return BlockDecision(Verdict.ALLOWED, matched_rule=rule)
    return BlockDecision(Verdict.BLOCKED, matched_rule=matched)


def _domain_suffix_hit(host: str, domain_rules: list[str]) -> str | None:
    host = host.lower().rstrip(".")
    for dom in domain_rules:
        dom = dom.lower().rstrip(".")
        if host == dom or host.endswith("." + dom):
            return dom
    return None


def match_sinkhole(hostname: str, dns: DnsRecordStore, domain_rules: list[str],
                   max_depth: int = 10) -> BlockDecision:
    hostname = hostname.lower().rstrip(".")
    hit = _domain_suffix_hit(hostname, domain_rules)
    if hit:
        return BlockDecision(Verdict.BLOCKED, matched_domain=hit)
    try:
        chain = resolve_chain(hostname, dns, max_depth)
    except CnameCycle:
        return BlockDecision(Verdict.ALLOWED)
    for hop in chain.hops:
        hit = _domain_suffix_hit(hop, domain_rules)
        if hit:
            return BlockDecision(Verdict.BLOCKED, matched_domain=hit)
    return BlockDecision(Verdict.ALLOWED)
