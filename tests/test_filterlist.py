"""Filter-subset tests against hand-computed match expectations."""

import pytest

from cnametrack.defense import pure_domain_rules
from cnametrack.filterlist import (
    FilterRule,
    load_filter_list,
    parse_rule,
)
from cnametrack.model import ContentClass
from cnametrack.sitectx import Relation

CROSS = Relation.CROSS_SITE
SAME = Relation.SAME_SITE


def match(rule_text, url, relation=CROSS, page_site=None):
    rule = parse_rule(rule_text)
    assert rule is not None, rule_text
    return rule.matches(url, relation, page_site)


class TestDomainAnchor:
    # hand-frozen expectations for the ||domain^ anchor
    CASES = [
        ("||tracker.net^", "https://tracker.net/", True),
        ("||tracker.net^", "https://tracker.net/path?q=1", True),
        ("||tracker.net^", "https://sub.tracker.net/x", True),
        ("||tracker.net^", "https://tracker.net:8443/x", True),
        ("||tracker.net^", "https://nottracker.net/", False),
        ("||tracker.net^", "https://tracker.net.evil.com/", False),
        ("||tracker.net^", "https://evil.com/tracker.net/", False),
        ("||tracker.net^", "http://tracker.net/", True),
        ("||tracker.net/pixel", "https://tracker.net/pixel.gif", True),
        ("||tracker.net/pixel", "https://tracker.net/img/pixel.gif", False),
        ("||tracker.net/*/beacon", "https://a.tracker.net/v2/beacon", True),
        ("||tracker.net/*/beacon", "https://a.tracker.net/beacon", False),
        # a trailing "|" anchors the end of the URL
        ("||t.net^|", "https://t.net/", True),
        ("||t.net^|", "https://t.net", True),
        ("||t.net^|", "https://t.net/x", False),
        ("||t.net|", "https://t.net", True),
        ("||t.net|", "https://t.net/", False),
    ]

    @pytest.mark.parametrize("rule,url,expected", CASES)
    def test_case(self, rule, url, expected):
        assert match(rule, url) is expected


class TestPlainPattern:
    CASES = [
        ("/ads/banner^", "https://site.com/ads/banner/1.png", True),
        ("/ads/banner^", "https://site.com/ads/banners/1.png", False),
        ("track*pixel", "https://x.com/track/v1/pixel", True),
        ("|https://exact.com/", "https://exact.com/", True),
        ("|https://exact.com/", "http://mirror.net/https://exact.com/", False),
        ("swf|", "https://x.com/movie.swf", True),
        ("swf|", "https://x.com/movie.swf?x=1", False),
        # ^ matches one separator char; digits and "-" are not separators
        ("-ad-^", "https://x.com/img-ad-?x=1", True),
        ("-ad-^", "https://x.com/img-ad-1/file.png", False),
    ]

    @pytest.mark.parametrize("rule,url,expected", CASES)
    def test_case(self, rule, url, expected):
        assert match(rule, url) is expected

    def test_separator_matches_end_of_url(self):
        assert match("||t.net^", "https://t.net")


class TestOptions:
    def test_third_party_only(self):
        assert match("||t.net^$third-party", "https://t.net/x", CROSS)
        assert not match("||t.net^$third-party", "https://t.net/x", SAME)

    @pytest.mark.parametrize("opt", ["~third-party", "first-party"])
    def test_first_party_only(self, opt):
        assert match(f"||t.net^${opt}", "https://t.net/x", SAME)
        assert not match(f"||t.net^${opt}", "https://t.net/x", CROSS)

    def test_domain_option_include(self):
        rule = "||t.net^$domain=shop.com|news.org"
        assert match(rule, "https://t.net/x", CROSS, page_site="shop.com")
        assert not match(rule, "https://t.net/x", CROSS, page_site="other.com")
        assert not match(rule, "https://t.net/x", CROSS, page_site=None)

    def test_domain_option_exclude(self):
        rule = "||t.net^$domain=~shop.com"
        assert not match(rule, "https://t.net/x", CROSS, page_site="shop.com")
        assert match(rule, "https://t.net/x", CROSS, page_site="other.com")

    @pytest.mark.parametrize("opt,content,expected", [
        ("script", ContentClass.SCRIPT, True),
        ("script", ContentClass.IMAGE, False),
        ("script", None, False),
        ("image", ContentClass.IMAGE, True),
        ("image", ContentClass.SCRIPT, False),
        ("script,image", ContentClass.IMAGE, True),
        ("script,image", ContentClass.HTML, False),
    ])
    def test_type_option_matches_only_its_content_class(self, opt, content, expected):
        rule = parse_rule(f"||x.net^${opt}")
        assert rule.matches("https://x.net/p.gif", CROSS, None, content) is expected

    @pytest.mark.parametrize("page_host,expected", [
        ("shop.example.com", True),
        ("www.shop.example.com", True),
        ("example.com", False),
        ("notshop.example.com", False),
        (None, False),
    ])
    def test_domain_option_matches_page_host_suffix(self, page_host, expected):
        assert match("||t.net^$domain=shop.example.com", "https://t.net/x", CROSS,
                     page_site=page_host) is expected
        assert match("||t.net^$domain=Shop.Example.com", "https://t.net/x", CROSS,
                     page_site=page_host) is expected

    @pytest.mark.parametrize("page_host,expected", [
        ("shop.example.com", False),
        ("a.shop.example.com", False),
        ("www.example.com", True),
    ])
    def test_domain_exclude_matches_page_host_suffix(self, page_host, expected):
        assert match("||t.net^$domain=~shop.example.com", "https://t.net/x", CROSS,
                     page_site=page_host) is expected

    def test_domain_option_split_at_parse_time(self):
        rule = parse_rule("||t.net^$domain=a.com|~b.a.com|c.org")
        assert rule.domain_include == ("a.com", "c.org")
        assert rule.domain_exclude == ("b.a.com",)

    def test_unsupported_option_goes_inert(self):
        rule = parse_rule("||t.net^$websocket")
        assert rule.inert and rule.pattern is None and rule.token is None
        assert not rule.matches("https://t.net/x", CROSS, None)

    def test_regex_rule_inert(self):
        rule = parse_rule("/banner[0-9]+/")
        assert rule.inert and rule.pattern is None and rule.token is None


class TestExceptions:
    def test_exception_flag(self):
        rule = parse_rule("@@||t.net^$first-party")
        assert rule.is_exception
        assert rule.matches("https://t.net/x", SAME, None)


class TestPureDomain:
    @pytest.mark.parametrize("raw,expected", [
        ("||t.net^", True),
        ("||t.net", True),
        ("||t.net^$third-party", False),
        ("||t.net^/pixel", False),
        ("||t.net^*", False),
        ("/ads/", False),
        ("||t.net^|", False),
        ("||t.net^$websocket", False),  # inert
        ("||b.net:8080^", False),  # only port 8080
        ("||tr%acker.net^", False),  # the anchored host stops at "%"
    ])
    def test_pure_domain(self, raw, expected):
        rule = parse_rule(raw)
        assert rule.pure_domain is expected

    @pytest.mark.parametrize("texts", [
        ["||a.net^", "@@||b.net^", "||c.net^/x", "||a.net^"],
        ["||t.net^$websocket", "||b.net:8080^", "||tr%acker.net^", "||a.net^"],
    ], ids=["exception-and-path", "inert-port-and-percent"])
    def test_pure_domain_rules_extractor(self, texts):
        assert pure_domain_rules([parse_rule(r) for r in texts]) == ["a.net"]


class TestLoadFilterList:
    LIST_TEXT = """\
! Title: test list
[Adblock Plus 2.0]
||tracker.net^
||stats.example^$third-party
@@||tracker.net^$domain=trusted.com
site.com##.ad-banner
/banner[0-9]+/
||weird.net^$websocket

/ads/
"""

    def test_stats(self, tmp_path):
        path = tmp_path / "filters.txt"
        path.write_text(self.LIST_TEXT)
        rules, stats = load_filter_list(path)
        # the title, [Adblock...], the blank line and the cosmetic rule are skipped;
        # two regex-delimited rules + one unsupported option
        assert stats.inert == 3
        assert stats.rules == len(rules) == 6
        active = [r for r in rules if not r.inert]
        assert len(active) == 3
