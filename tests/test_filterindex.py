"""The token-indexed filter engine against the linear reference scan.

``match_plain`` and ``match_sinkhole`` look rules and domains up through an
index; tests/naivefilter.py keeps the linear scans they replaced.  Both must
give the same verdict and the same matched rule object (or domain) on every
input, including the ones a token index can get wrong: upper-case and
non-ASCII URLs, tokens next to ``*`` or an unanchored edge, ``|`` anchors, a
trailing ``^``, exceptions, inert and token-less rules, and ports.
"""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import naivefilter
import test_defense
from cnametrack import defense
from cnametrack.defense import DomainSet, match_plain, match_sinkhole
from cnametrack.dnsgraph import DnsRecordStore
from cnametrack.filterlist import FilterList, _bounded_token, load_filter_list, parse_rule, url_tokens
from cnametrack.model import ContentClass
from cnametrack.sitectx import Relation

CROSS = Relation.CROSS_SITE

_TOKENS = ["track", "pixel", "ads", "banner", "collect", "v1", "js", "com", "net",
           "k", "s", "id", "%2f", "a1", "adsbanner"]
_SEPARATORS = ["/", ".", "-", "_", "?", "=", "&", ":", "|"]
# under re.IGNORECASE U+017F (long s) matches "s" and U+212A (Kelvin sign) "k"
_NON_ASCII = ["\u017f", "\u212a", "\u00e9"]
_FOLDS = {"s": "\u017f", "\u017f": "s", "k": "\u212a", "\u212a": "k"}
# typed and domain= options are drawn often (repeats weight the draw): a typed
# rule decides a case only when the case's content class is one it names
_OPTIONS = ["third-party", "~third-party", "first-party", "script", "image", "script,image",
            "script,image", "script,image,domain=~news.org",
            "domain=shop.com", "domain=shop.example.com|~www.shop.com", "domain=~news.org",
            "script,image,domain=~news.org", "script,image,domain=~www.shop.com",
            "script,image,domain=shop.com|shop.example.com", "websocket"]
_UNSUPPORTED = ["websocket", "popup", "xmlhttprequest"]
_PAGE_HOSTS = [None, "shop.com", "www.shop.com", "shop.example.com", "a.shop.example.com", "news.org"]
_CONTENT = [None, *ContentClass]


def _word(rng: random.Random) -> str:
    word = rng.choice(_TOKENS)
    if rng.random() < 0.2:
        word = "".join(c.upper() if rng.random() < 0.5 else c for c in word)
    if rng.random() < 0.05:
        word = word.replace("s", "\u017f").replace("k", "\u212a")
    return word


def _body(rng: random.Random, specials: bool) -> str:
    """Tokens joined by separators; with ``specials``, also ``*`` and ``^``."""
    seps = _SEPARATORS + (["*", "^", "*", "^"] if specials else [])
    parts = []
    for _ in range(rng.randint(1, 5)):
        if parts or rng.random() < 0.6:
            parts.append(rng.choice(seps))
        parts.append(_word(rng))
    if rng.random() < 0.4:
        parts.append(rng.choice(seps))
    return "".join(parts)


def _rule_text(rng: random.Random) -> str:
    form = rng.randrange(7)
    if form == 0:
        text = f"||{rng.choice(test_defense._DOMAINS)}"
        text += rng.choice(["", "^", "^*", "/", "^|", "%2f"]) + (_body(rng, True) if rng.random() < 0.5 else "")
    elif form == 1:
        text = f"||{rng.choice(['stats.', 'x.', ''])}{rng.choice(test_defense._DOMAINS)}^"
    elif form == 5:
        text = f"/{_word(rng)}[0-9]+/"  # regex rule: inert
    elif form == 6:  # a port, an unsupported option (inert) or an end anchor after the host
        text = f"||{rng.choice(['x.', ''])}{rng.choice(test_defense._DOMAINS)}" + rng.choice([
            f":{rng.choice(['8080', '443', '1'])}^", f"^${rng.choice(_UNSUPPORTED)}", "^|", "|"])
    else:
        text = _body(rng, True)
        if rng.random() < 0.3:
            text = "|" + rng.choice(["https://", "http://", ""]) + text
        if rng.random() < 0.3:
            text += "|"
    if rng.random() < 0.4:
        text += ("," if "$" in text else "$") + rng.choice(_OPTIONS)
    if rng.random() < 0.25:
        text = "@@" + text
    return text


def _url_like(rng: random.Random, rule_text: str) -> str:
    """A URL path built from a rule's pattern, so that rules do match; it may
    go on past the pattern's end."""
    body = rule_text.removeprefix("@@").split("$")[0].strip("|")
    out = []
    for ch in body:
        if ch == "*":
            out.append(rng.choice(["", _word(rng), "/x/"]))
        elif ch == "^":
            out.append(rng.choice(["/", "?", ":", "&"]))
        else:
            out.append(ch)
    out.append(rng.choice(["", "", _word(rng), "/" + _word(rng)]))
    return "".join(out)


def _random_filter_case(rng: random.Random):
    """One (rules, url, relation, page_host, content) case: the rules and URL
    of ``test_defense._random_case`` plus generated rules and URL variants."""
    rules, _dns, url, host, relation, _site = test_defense._random_case(rng)
    texts = [_rule_text(rng) for _ in range(rng.randint(1, 12))]
    rules += [r for r in map(parse_rule, texts) if r is not None]
    rng.shuffle(rules)
    form = rng.randrange(4)
    if form == 1:
        url = f"https://{host}/{_body(rng, False)}"
    elif form == 2:
        text = rng.choice(texts)
        path = _url_like(rng, text)
        url = path if path.startswith(("http", "HTTP")) else f"https://{host}/{path.lstrip('/')}"
        if text.startswith("||") or text.startswith("@@||"):
            url = f"https://{rng.choice(['', 'a.', 'x.y.'])}{path.lstrip('/')}"
    elif form == 3:
        url = url.replace(host, host + rng.choice([":8080", ":443", ":1"]), 1)
    if rng.random() < 0.15:
        url = "".join(c.upper() if rng.random() < 0.5 else c for c in url)
    if rng.random() < 0.15:
        url = "".join(_FOLDS.get(c, c) if rng.random() < 0.5 else c for c in url)
    if rng.random() < 0.1:
        at = rng.randrange(len(url) + 1)
        url = url[:at] + rng.choice(_NON_ASCII) + url[at:]
    return rules, url, relation, rng.choice(_PAGE_HOSTS), rng.choice(_CONTENT)


def _assert_same(rules, index, url, relation, page_host, content):
    got = match_plain(url, relation, index, page_host, content)
    want = naivefilter.match_plain(url, relation, rules, page_host, content)
    assert got.verdict is want.verdict and got.matched_rule is want.matched_rule, (
        url, relation, page_host, content, [r.raw for r in rules],
        got.matched_rule and got.matched_rule.raw, want.matched_rule and want.matched_rule.raw)
    return want


def run_filter_cases(n_cases: int, seed: int) -> dict[str, int]:
    """Compare both engines on random cases; returns what the cases covered."""
    rng = random.Random(seed)
    seen = dict.fromkeys(["blocked", "excepted", "non_ascii", "pruned", "fallback_rule",
                          "inert_rule", "typed_hit", "domain_opt_hit", "port_rule",
                          "unsupported_option_rule", "end_anchored_domain_rule"], 0)
    for _ in range(n_cases):
        rules, url, relation, page_host, content = _random_filter_case(rng)
        index = FilterList(rules)
        want = _assert_same(rules, index, url, relation, page_host, content)
        rule = want.matched_rule
        seen["blocked"] += want.blocked
        seen["excepted"] += rule is not None and rule.is_exception
        seen["typed_hit"] += rule is not None and bool(rule.content_types)
        seen["domain_opt_hit"] += rule is not None and bool(rule.domain_include or rule.domain_exclude)
        seen["non_ascii"] += not url.isascii()
        tokens = url_tokens(url)
        seen["pruned"] += len(index.candidates(tokens)) < sum(not r.is_exception for r in rules)
        seen["fallback_rule"] += any(r.token is None and not r.inert for r in rules)
        seen["inert_rule"] += any(r.inert for r in rules)
        patterns = [r.raw.removeprefix("@@").partition("$")[0] for r in rules]
        seen["port_rule"] += any(re.fullmatch(r"\|\|[a-z.]+:\d+\^", p) for p in patterns)
        seen["unsupported_option_rule"] += any(r.inert and r.raw.removeprefix("@@").startswith("||")
                                               for r in rules)
        seen["end_anchored_domain_rule"] += any(p.startswith("||") and p.endswith("|") for p in patterns)
    return seen


def test_index_equals_linear_scan_randomized():
    seen = run_filter_cases(4000, seed=20261018)
    # the generator reaches every kind of input the index could get wrong
    assert all(n >= 20 for n in seen.values()), seen
    assert seen["typed_hit"] >= 40 and seen["domain_opt_hit"] >= 40, seen


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_index_equals_linear_scan_hypothesis(seed):
    run_filter_cases(5, seed=seed)


def test_monotonicity_cases_through_both_engines(monkeypatch):
    """``run_monotonicity_cases`` with every ``match_plain`` call, also the
    uncloaked re-match, checked against the linear scan."""
    indexed = defense.match_plain

    def checked(url, relation, rules, page_host=None, content=None):
        rules = list(rules)
        _assert_same(rules, FilterList(rules), url, relation, page_host, content)
        return indexed(url, relation, rules, page_host, content)

    monkeypatch.setattr(defense, "match_plain", checked)
    monkeypatch.setattr(test_defense, "match_plain", checked)
    assert test_defense.run_monotonicity_cases(400, seed=7) == 400


class TestTokens:
    def test_non_ascii_url_takes_every_rule(self):
        # U+017F (long s) and U+212A (Kelvin sign) match "s" and "k" under
        # re.IGNORECASE, but str.lower() maps neither to ASCII
        assert match_plain("https://x.com/ad\u017f/p", CROSS, [parse_rule("/ads/p")]).blocked
        assert match_plain("https://x.com/trac\u212a/p", CROSS, [parse_rule("/track/p")]).blocked
        assert url_tokens("https://x.com/ad\u017f/p") is None

    def test_upper_case_url(self):
        assert match_plain("HTTPS://X.COM/ADS/BANNER", CROSS, [parse_rule("/ads/banner^")]).blocked

    def test_token_next_to_wildcard_is_not_a_key(self):
        rules = [parse_rule("/ads*banner")]
        assert rules[0].token is None
        assert match_plain("https://x.com/adsbanner", CROSS, rules).blocked

    def test_unanchored_edges_are_not_boundaries(self):
        assert parse_rule("ads").token is None
        assert match_plain("https://x.com/loads.js", CROSS, [parse_rule("ads")]).blocked
        assert parse_rule("|ads|").token == "ads"

    def test_domain_anchor_keys(self):
        assert parse_rule("||tracker.net^").token == "tracker"
        assert parse_rule("||tracker.net^*").token == "tracker"  # "net" touches "*"
        assert match_plain("https://tracker.net:8443/p", CROSS, [parse_rule("||tracker.net^")]).blocked

    def test_trailing_separator_matches_end_of_url(self):
        assert match_plain("https://t.net", CROSS, [parse_rule("||t.net^")]).blocked

    def test_first_rule_in_list_order_wins(self):
        rules = [parse_rule("/pixel^"), parse_rule("||tracker.net^"), parse_rule("@@/pixel^"),
                 parse_rule("@@||tracker.net^")]
        d = match_plain("https://tracker.net/pixel", CROSS, rules)
        assert not d.blocked and d.matched_rule is rules[2]
        d = match_plain("https://tracker.net/x", CROSS, rules)
        assert not d.blocked and d.matched_rule is rules[3]


@settings(max_examples=500, deadline=None)
@given(start=st.sampled_from("^*"), end=st.sampled_from("^*"),
       body=st.text(alphabet="adsKS09%*^/.|\u017f\u212a\u00e9", max_size=16))
def test_bounded_token_equals_per_character_scan(start, body, end):
    """The one regex over the lower-cased shape picks the token the
    per-character scan picked, on either frame and with upper case,
    non-ASCII letters that fold to ASCII, wildcards and separators."""
    shape = start + body + end
    assert _bounded_token(shape) == naivefilter.bounded_token(shape)


class TestLazyCompile:
    def test_unreached_rules_are_never_compiled(self, tmp_path):
        path = tmp_path / "filters.txt"
        path.write_text("".join(f"||zq{i}.com^\n" for i in range(50)) + "||tracker.net^\n")
        rules, _stats = load_filter_list(path)
        assert isinstance(rules, FilterList)
        assert match_plain("https://tracker.net/x", CROSS, rules).blocked
        compiled = [r.raw for r in rules if "regex" in vars(r)]
        assert compiled == ["||tracker.net^"]


# --- sinkhole ---------------------------------------------------------------------

def _random_domains(rng: random.Random) -> list[str]:
    pool = [*test_defense._DOMAINS, "net", "x.tracker.net", "c0.cdn.host", "Tracker.NET.",
            "shop.com.", "c1.media.org"]
    return [rng.choice(pool) for _ in range(rng.randint(0, 6))]


def test_sinkhole_index_equals_linear_scan():
    rng = random.Random(5)
    hits = 0
    for _ in range(2000):
        _rules, dns, _url, host, _rel, _site = test_defense._random_case(rng)
        domains = _random_domains(rng)
        got = match_sinkhole(host, dns, DomainSet(domains))
        want = naivefilter.match_sinkhole(host, dns, domains)
        assert (got.verdict, got.matched_domain) == (want.verdict, want.matched_domain), (host, domains)
        hits += want.blocked
    assert hits > 200


def test_sinkhole_two_listed_suffixes_both_match():
    dns = DnsRecordStore()
    for domains, want in ((["tracker.net", "x.tracker.net"], "tracker.net"),
                          (["x.tracker.net", "tracker.net"], "x.tracker.net")):
        got = match_sinkhole("a.x.tracker.net", dns, domains)
        assert got.blocked and got.matched_domain == want
        assert naivefilter.match_sinkhole("a.x.tracker.net", dns, domains).matched_domain == want
