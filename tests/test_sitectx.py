"""Site-context tests: public-suffix conformance, origin relations and cookie
parsing."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnametrack.errors import HostIsPublicSuffix, InvalidHostname, SchemaViolation
from cnametrack.sitectx import (
    CookieAttributes,
    Origin,
    PublicSuffixTable,
    Relation,
    classify_relation,
    parse_set_cookie,
    validate_host,
)

VECTORS = Path(__file__).parent / "data" / "psl_test_vectors.txt"

_VECTOR_RE = re.compile(
    r"checkPublicSuffix\((null|'[^']*'), (null|'[^']*')\);"
)


def load_vectors():
    cases = []
    for line in VECTORS.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        m = _VECTOR_RE.match(line)
        if not m:
            continue
        inp = None if m.group(1) == "null" else m.group(1)[1:-1]
        exp = None if m.group(2) == "null" else m.group(2)[1:-1]
        if inp is not None and not inp.isascii():
            continue  # Unicode IDN forms are the documented exclusion
        cases.append((inp, exp))
    return cases


def check_public_suffix(psl, host):
    """Reference-vector semantics: None input or any failure -> None."""
    if host is None:
        return None
    if host.startswith("."):
        return None
    try:
        return psl.etld_plus_one(host.lower())
    except (InvalidHostname, HostIsPublicSuffix):
        return None


class TestPublicSuffixConformance:
    def test_vector_file_is_nontrivial(self):
        cases = load_vectors()
        assert len(cases) >= 60

    @pytest.mark.parametrize("host,expected", load_vectors())
    def test_vector(self, psl, host, expected):
        assert check_public_suffix(psl, host) == expected

    def test_exception_rule_beats_wildcard(self, psl):
        # !www.ck overrides *.ck
        assert psl.etld_plus_one("www.ck") == "www.ck"
        assert psl.etld_plus_one("deep.www.ck") == "www.ck"

    @pytest.mark.parametrize("rule", ["foo.city.kawasaki.jp", "*.city.kawasaki.jp"])
    def test_normal_rule_below_an_exception_is_refused(self, rule):
        # The exception would have to prevail over the longer rule.
        with pytest.raises(SchemaViolation, match=r"lies below the exception rule '!city\.kawasaki\.jp'"):
            PublicSuffixTable.from_lines(["*.kawasaki.jp", "!city.kawasaki.jp", rule])

    def test_rules_beside_an_exception_load(self):
        psl = PublicSuffixTable.from_lines(["jp", "*.kawasaki.jp", "!city.kawasaki.jp", "foo.kawasaki.jp"])
        assert psl.public_suffix("a.city.kawasaki.jp") == "kawasaki.jp"
        assert psl.public_suffix("b.a.foo.kawasaki.jp") == "foo.kawasaki.jp"

    def test_private_section_rules_apply(self, psl):
        assert psl.etld_plus_one("foo.github.io") == "foo.github.io"
        with pytest.raises(HostIsPublicSuffix):
            psl.etld_plus_one("github.io")

    def test_ip_literal_has_no_registrable_domain(self, psl):
        with pytest.raises(HostIsPublicSuffix):
            psl.etld_plus_one("192.0.2.1")
        assert psl.etld_plus_one_or_none("192.0.2.1") is None

    def test_trailing_dot_normalized(self, psl):
        assert psl.etld_plus_one("www.example.com.") == "example.com"


class TestValidateHost:
    def test_lowercases(self):
        assert validate_host("WwW.Example.COM") == "www.example.com"

    @pytest.mark.parametrize("bad", ["", "-bad.com", "bad-.com", "a..b",
                                     "x" * 64 + ".com", "a." + "b" * 252])
    def test_rejects(self, bad):
        with pytest.raises(InvalidHostname):
            validate_host(bad)

    def test_63_char_label_ok(self):
        validate_host("x" * 63 + ".com")


class TestOriginAndRelation:
    def test_default_ports(self):
        assert Origin.from_url("https://a.example.com/x").port == 443
        assert Origin.from_url("http://a.example.com/x").port == 80

    def test_same_origin_requires_port(self, psl):
        a = Origin.from_url("https://a.example.com/")
        b = Origin.from_url("https://a.example.com:8443/")
        assert classify_relation(a, a, psl) is Relation.SAME_ORIGIN
        assert classify_relation(a, b, psl) is Relation.SAME_SITE

    def test_same_site_cross_subdomain(self, psl):
        a = Origin.from_url("https://www.example.com/")
        b = Origin.from_url("https://metrics.example.com/")
        assert classify_relation(a, b, psl) is Relation.SAME_SITE

    def test_cross_site(self, psl):
        a = Origin.from_url("https://www.example.com/")
        b = Origin.from_url("https://tracker.example.net/")
        assert classify_relation(a, b, psl) is Relation.CROSS_SITE

    def test_public_suffix_boundary_is_cross_site(self, psl):
        a = Origin.from_url("https://alpha.github.io/")
        b = Origin.from_url("https://beta.github.io/")
        assert classify_relation(a, b, psl) is Relation.CROSS_SITE

    def test_ip_literals(self, psl):
        a = Origin.from_url("https://192.0.2.1/")
        assert classify_relation(a, Origin.from_url("http://192.0.2.1/"), psl) is Relation.SAME_SITE
        assert classify_relation(a, Origin.from_url("https://192.0.2.2/"), psl) is Relation.CROSS_SITE

    @pytest.mark.parametrize("host", ["localhost", "github.io"])
    def test_host_without_registrable_domain_is_its_own_site(self, psl, host):
        page = Origin.from_url("https://www.example.com/")
        bare = Origin.from_url(f"http://{host}:8080/x.js")
        assert classify_relation(page, bare, psl) is Relation.CROSS_SITE
        assert classify_relation(bare, page, psl) is Relation.CROSS_SITE
        assert classify_relation(bare, Origin.from_url(f"https://{host}/"), psl) is Relation.SAME_SITE
        sub = Origin.from_url(f"https://a.{host}/")
        assert classify_relation(bare, sub, psl) is Relation.CROSS_SITE


class TestSetCookieParsing:
    def test_full_header(self):
        c = parse_set_cookie(
            "uid=abc123; Domain=.example.com; Path=/app; Secure; "
            "SameSite=Lax; Expires=Wed, 01 Jan 2031 00:00:00 GMT"
        )
        assert c == CookieAttributes(name="uid", value="abc123", is_session=False)

    def test_minimal_is_session(self):
        assert parse_set_cookie("sid=xyz") == CookieAttributes("sid", "xyz", is_session=True)

    @pytest.mark.parametrize("attrs,session", [
        ("Max-Age=3600", False),
        ("max-age= 0 ", False),
        ("Max-Age=-1", False),
        ("expires=x", False),
        ("Max-Age=soon", True),
        ("Max-Age=", True),
        ("Expires=", True),
        ("Expires", True),
        ("Domain=a.com; Path=/; Secure; SameSite=Strict", True),
    ])
    def test_expiry_decides_session(self, attrs, session):
        assert parse_set_cookie(f"a=b; {attrs}").is_session is session

    def test_value_with_equals_sign(self):
        c = parse_set_cookie("tok=a=b=c; Path=/")
        assert c.value == "a=b=c"


# --- property tests -----------------------------------------------------------

_LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)
_HOSTS = st.lists(_LABEL, min_size=1, max_size=3).map(
    lambda ls: ".".join(ls + ["example", "com"])
)


@settings(max_examples=200)
@given(host=_HOSTS)
def test_etld1_is_suffix_and_idempotent(host):
    psl = PublicSuffixTable.bundled()
    site = psl.etld_plus_one(host)
    assert host == site or host.endswith("." + site)
    assert psl.etld_plus_one(site) == site


@settings(max_examples=100)
@given(a=_HOSTS, b=_HOSTS, scheme=st.sampled_from(["http", "https"]))
def test_relation_symmetric_and_reflexive(a, b, scheme):
    psl = PublicSuffixTable.bundled()
    oa, ob = Origin(scheme, a), Origin(scheme, b)
    assert classify_relation(oa, oa, psl) is Relation.SAME_ORIGIN
    assert classify_relation(oa, ob, psl) is classify_relation(ob, oa, psl)
