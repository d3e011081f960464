"""Loader tests: capture JSONL, HAR 1.2, DNS snapshots, signatures and
rankings."""

import json

import pytest

import corpusgen
from cnametrack.detect import SignatureIndex
from cnametrack.errors import MalformedHar, SchemaViolation
from cnametrack.ingest import (
    load_crawl_jsonl,
    load_dns,
    load_har,
    load_ranking,
    load_signatures,
)
from cnametrack.model import ContentClass, UaLabel


@pytest.fixture
def capture_path(tmp_path):
    records = [
        corpusgen.visit_record("v1", "https://www.shop.com/", ua="chrome",
                               month="2020-10"),
        corpusgen.txn_record(
            "v1", "https://metrics.shop.com/ea/collect?uid=1",
            cookie_header="a=111222333444; b=2",
            set_cookie="etuid=xyz; Domain=shop.com; Expires=Wed, 01 Jan 2031 00:00:00 GMT",
            remote_ip="203.0.113.7",
        ),
        corpusgen.txn_record(
            "v1", "https://www.shop.com/form", method="POST",
            post_body="x=1&cookie=111222333444",
            post_content_type="application/x-www-form-urlencoded",
            content_type="text/html",
        ),
        corpusgen.js_cookie_record(
            "v1", "js1=abcdef; path=/",
            ["https://cdn.widgets.net/w.js", "https://www.shop.com/"],
        ),
        corpusgen.visit_record("v2", "https://www.other.net/", ua="Safari/605.1"),
    ]
    return corpusgen.write_jsonl(records, tmp_path / "capture.jsonl")


class TestCaptureJsonl:
    def test_roundtrip_structure(self, capture_path, psl):
        visits = load_crawl_jsonl(capture_path, psl)
        assert [v.visit_id for v in visits] == ["v1", "v2"]
        v1 = visits[0]
        assert v1.site == "shop.com"
        assert v1.user_agent_label is UaLabel.CHROME_LIKE
        assert visits[1].user_agent_label is UaLabel.SAFARI_LIKE
        txn = v1.transactions[0]
        assert txn.host == "metrics.shop.com"
        assert txn.path_and_query == "/ea/collect?uid=1"
        assert txn.request_cookies == (("a", "111222333444"), ("b", "2"))
        assert txn.set_cookies[0].name == "etuid"
        assert not txn.set_cookies[0].is_session
        post = v1.transactions[1]
        assert post.post_body == "x=1&cookie=111222333444"
        assert post.post_content_type == "application/x-www-form-urlencoded"
        assert post.content_type_class is ContentClass.HTML
        jsc = v1.js_cookie_sets[0]
        assert jsc.parsed.name == "js1"
        assert jsc.script_origin == "cdn.widgets.net"

    def test_duplicate_visit_id(self, tmp_path):
        path = corpusgen.write_jsonl([
            corpusgen.visit_record("v1", "https://a.com/"),
            corpusgen.visit_record("v1", "https://b.com/"),
        ], tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation) as exc:
            load_crawl_jsonl(path)
        assert exc.value.line == 2

    def test_transaction_for_unknown_visit(self, tmp_path):
        path = corpusgen.write_jsonl([
            corpusgen.txn_record("ghost", "https://a.com/x"),
        ], tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation) as exc:
            load_crawl_jsonl(path)
        assert "ghost" in str(exc.value) and exc.value.line == 1

    def test_bad_json_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"record_type": "visit", "visit_id": "v", "page_url": "https://a.com/"}\n{broken\n')
        with pytest.raises(SchemaViolation) as exc:
            load_crawl_jsonl(path)
        assert exc.value.line == 2

    def test_unknown_record_type(self, tmp_path):
        path = corpusgen.write_jsonl([{"record_type": "mystery"}], tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation):
            load_crawl_jsonl(path)

    @pytest.mark.parametrize("version,message", [
        (99, "unsupported capture version 99"),
        ("1", "version must be an integer"),
        (None, "version must be an integer"),
        (True, "version must be an integer"),
        (1.0, "version must be an integer"),
    ])
    def test_unsupported_version(self, tmp_path, version, message):
        """The version is the JSON integer 1: a string "1", a boolean or a
        float is not the supported number 1."""
        rec = corpusgen.visit_record("v1", "https://a.com/")
        rec["version"] = version
        path = corpusgen.write_jsonl([rec], tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation) as exc:
            load_crawl_jsonl(path)
        assert str(exc.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize("field,value,message", [
        ("user_agent", 5, "user_agent must be a string or null"),
        ("user_agent", {"ua": "chrome"}, "user_agent must be a string or null"),
        ("user_agent", 1.5, "user_agent must be a string or null"),
        ("visit_id", ["v"], "visit_id must be a string"),
        ("visit_id", {"id": "v"}, "visit_id must be a string"),
        ("visit_id", 5, "visit_id must be a string"),
    ])
    def test_mistyped_visit_field_names_the_line(self, tmp_path, field, value, message):
        rec = corpusgen.visit_record("v2", "https://b.com/")
        rec[field] = value
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                     tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation) as exc:
            load_crawl_jsonl(path)
        assert str(exc.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("value", [["v1"], {"id": "v1"}, 5])
    @pytest.mark.parametrize("record", [
        lambda vid: corpusgen.txn_record(vid, "https://a.com/x"),
        lambda vid: corpusgen.js_cookie_record(vid, "u=1", []),
    ], ids=["transaction", "js_cookie"])
    def test_mistyped_visit_id_of_a_record_names_the_line(self, tmp_path, record, value):
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), record(value)],
                                     tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation) as exc:
            load_crawl_jsonl(path)
        assert str(exc.value) == f"{path}:2: visit_id must be a string"

    def test_null_user_agent_is_other(self, tmp_path):
        rec = corpusgen.visit_record("v1", "https://a.com/")
        rec["user_agent"] = None
        path = corpusgen.write_jsonl([rec], tmp_path / "c.jsonl")
        assert load_crawl_jsonl(path)[0].user_agent_label is UaLabel.OTHER

    @pytest.mark.parametrize("status", ["abc", [200], None, "200", True, 200.0])
    def test_non_numeric_status_names_the_line(self, tmp_path, status):
        """The status is not kept, but a record whose status is no JSON
        integer is still rejected."""
        rec = corpusgen.txn_record("v1", "https://a.com/x", status=status)
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                     tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation) as exc:
            load_crawl_jsonl(path)
        assert str(exc.value) == f"{path}:2: status must be an integer"

    @pytest.mark.parametrize("headers", [[[5, "x"]], [["Cookie"]], ["Cookie: a=1"], {"Cookie": "a"}])
    def test_bad_header_names_the_line(self, tmp_path, headers):
        rec = corpusgen.txn_record("v1", "https://a.com/x")
        rec["request_headers"] = headers
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                     tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation, match="request_headers") as exc:
            load_crawl_jsonl(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("field,value", [
        ("url", 5),
        ("method", 5),
        ("method", None),
        ("content_type", 5),
        ("content_type", [1]),
        ("remote_ip", 5),
        ("post_body", ["a"]),
        ("post_body", 5),
        ("initiators", "abc"),
        ("initiators", [5]),
        ("initiators", None),
        ("initiators", ["http://[::1"]),
        ("response_size", "7"),
        ("response_size", True),
        ("response_size", 1.5),
        ("response_size", -1),
        ("post_body_truncated", "no"),
        ("post_body_truncated", 1),
        ("post_body_digest", True),
    ])
    def test_mistyped_transaction_field_names_the_line(self, tmp_path, field, value):
        rec = corpusgen.txn_record("v1", "https://a.com/x", remote_ip="192.0.2.1")
        rec[field] = value
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                     tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation, match=f"{field} must be") as exc:
            load_crawl_jsonl(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("record,message", [
        ({"record_type": "transaction", "visit_id": "v1"}, "missing url"),
        ({"record_type": "visit", "page_url": "https://b.com/"}, "missing visit_id"),
        ({"record_type": "js_cookie", "visit_id": "v1"}, "missing assigned"),
        (corpusgen.txn_record("v1", "http://[::1"), "bad URL: Invalid IPv6 URL"),
        (corpusgen.visit_record("v2", "http://[::1"), "bad URL: Invalid IPv6 URL"),
        (["v1"], "missing record_type"),
    ])
    def test_missing_field_or_bad_url_names_the_line(self, tmp_path, record, message):
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), record],
                                     tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation) as exc:
            load_crawl_jsonl(path)
        assert str(exc.value) == f"{path}:2: {message}"

    def test_mistyped_post_body_with_digest_names_the_line(self, tmp_path):
        rec = corpusgen.txn_record("v1", "https://a.com/x", method="POST")
        rec.update(post_body=5, post_body_digest="ab" * 32, post_body_truncated=True)
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                     tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation, match="post_body must be") as exc:
            load_crawl_jsonl(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("value", [5, None, ["https://a.com/"]])
    def test_mistyped_page_url_names_the_line(self, tmp_path, value):
        rec = corpusgen.visit_record("v2", "https://b.com/")
        rec["page_url"] = value
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                     tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation, match="page_url must be a string") as exc:
            load_crawl_jsonl(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("value", [5, ["2020-10"], {"m": "2020-10"}, True])
    def test_mistyped_visit_month_names_the_line(self, tmp_path, value):
        rec = corpusgen.visit_record("v2", "https://b.com/")
        rec["month"] = value
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                     tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation, match="month must be a string or null") as exc:
            load_crawl_jsonl(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("value", ["2020-10", None])
    def test_visit_month_string_or_null(self, tmp_path, value):
        rec = corpusgen.visit_record("v1", "https://a.com/")
        rec["month"] = value
        path = corpusgen.write_jsonl([rec], tmp_path / "c.jsonl")
        assert [v.visit_id for v in load_crawl_jsonl(path)] == ["v1"]

    def test_null_optional_fields_accepted(self, tmp_path, psl):
        rec = corpusgen.txn_record("v1", "https://a.com/x")
        rec.update(content_type=None, remote_ip=None, post_body=None)
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                     tmp_path / "c.jsonl")
        txn = load_crawl_jsonl(path, psl)[0].transactions[0]
        assert (txn.content_type_class, txn.remote_ip, txn.post_body) == (ContentClass.OTHER, None, None)

    def test_headers_derived_in_order(self, tmp_path, psl):
        rec = corpusgen.txn_record("v1", "https://a.com/x")
        rec["request_headers"] = [["cookie", "a=1; b=2"], ["Content-Type", "text/plain"],
                                  ["COOKIE", "c=3"], ["content-type", "application/json"]]
        rec["response_headers"] = [["Set-Cookie", "x=1"], ["X-Other", "y"], ["set-cookie", "z=2"]]
        path = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                     tmp_path / "c.jsonl")
        txn = load_crawl_jsonl(path, psl)[0].transactions[0]
        assert txn.request_cookies == (("a", "1"), ("b", "2"), ("c", "3"))
        assert txn.post_content_type == "text/plain"
        assert [c.name for c in txn.set_cookies] == ["x", "z"]

    @pytest.mark.parametrize("text", ['{"record_type": "visit"} x', "\ufeff{}", "[1] [2]", "{"])
    def test_bad_json_words_the_error_as_json_loads(self, tmp_path, text):
        path = tmp_path / "c.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation) as exc:
            load_crawl_jsonl(path)
        with pytest.raises(json.JSONDecodeError) as ref:
            json.loads(text.strip())
        assert str(exc.value) == f"{path}:1: bad JSON: {ref.value}"

    def test_non_string_js_cookie_names_the_line(self, tmp_path):
        path = corpusgen.write_jsonl([
            corpusgen.visit_record("v1", "https://a.com/"),
            {"record_type": "js_cookie", "visit_id": "v1", "assigned": 5},
        ], tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation, match="assigned must be a string") as exc:
            load_crawl_jsonl(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("stack", ["https://cdn.x.net/a.js", [5], None, ["http://[::1"]])
    def test_mistyped_js_cookie_stack_names_the_line(self, tmp_path, stack):
        path = corpusgen.write_jsonl([
            corpusgen.visit_record("v1", "https://a.com/"),
            {"record_type": "js_cookie", "visit_id": "v1", "assigned": "a=1", "stack": stack},
        ], tmp_path / "c.jsonl")
        with pytest.raises(SchemaViolation, match="stack must be a list of URL strings") as exc:
            load_crawl_jsonl(path)
        assert exc.value.line == 2

    def test_huge_post_body_truncated(self, tmp_path, psl):
        body = "A" * (1024 * 1024 + 10)
        path = corpusgen.write_jsonl([
            corpusgen.visit_record("v1", "https://a.com/"),
            corpusgen.txn_record("v1", "https://a.com/x", method="POST",
                                 post_body=body),
        ], tmp_path / "c.jsonl")
        txn = load_crawl_jsonl(path, psl)[0].transactions[0]
        assert txn.post_body_truncated
        assert len(txn.post_body) == 64 * 1024
        # a record that declares a digest was truncated at capture: its body
        # and its flag are kept as given
        for flag in (True, False):
            rec = corpusgen.txn_record("v1", "https://a.com/x", method="POST",
                                       post_body=txn.post_body)
            rec.update(post_body_digest="ab" * 32, post_body_truncated=flag)
            out = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://a.com/"), rec],
                                        tmp_path / "o.jsonl")
            txn2 = load_crawl_jsonl(out, psl)[0].transactions[0]
            assert (txn2.post_body, txn2.post_body_truncated) == (txn.post_body, flag)


class TestHar:
    def _har(self, tmp_path, doc):
        path = tmp_path / "capture.har"
        path.write_text(json.dumps(doc))
        return path

    def test_basic_har(self, tmp_path, psl):
        doc = {"log": {"version": "1.2", "pages": [
            {"id": "page_1", "title": "https://www.shop.com/"},
        ], "entries": [
            {
                "pageref": "page_1",
                "startedDateTime": "2020-10-01T00:00:02Z",
                "request": {"method": "GET",
                            "url": "https://metrics.shop.com/ea/collect",
                            "headers": [{"name": "Cookie", "value": "a=1"},
                                        {"name": "User-Agent", "value": "Mozilla Chrome/85"}]},
                "response": {"status": 200,
                             "headers": [{"name": "Set-Cookie", "value": "x=y; Max-Age=60"}],
                             "content": {"size": 43, "mimeType": "image/gif"}},
                "serverIPAddress": "203.0.113.7",
                "_initiator": {"stack": {"callFrames": [
                    {"url": "https://metrics.shop.com/ea/tag.js"}]}},
            },
            {
                "pageref": "page_1",
                "startedDateTime": "2020-10-01T00:00:01Z",
                "request": {"method": "GET", "url": "https://www.shop.com/",
                            "headers": []},
                "response": {"status": 200, "headers": [],
                             "content": {"size": 1200, "mimeType": "text/html"}},
            },
        ]}}
        visits = load_har(self._har(tmp_path, doc), psl)
        assert len(visits) == 1
        v = visits[0]
        assert v.site == "shop.com"
        assert v.user_agent_label is UaLabel.CHROME_LIKE
        # entries ordered by startedDateTime, not file order
        assert v.transactions[0].request_url == "https://www.shop.com/"
        t = v.transactions[1]
        assert t.request_cookies == (("a", "1"),)
        assert t.set_cookies[0].name == "x"
        assert t.remote_ip == "203.0.113.7"
        assert t.initiators == ("https://metrics.shop.com/ea/tag.js",)

    def test_missing_response_warns_status_zero(self, tmp_path, psl, caplog):
        doc = {"log": {"entries": [
            {"request": {"method": "GET", "url": "https://a.com/x"}},
        ]}}
        path = self._har(tmp_path, doc)
        visits = load_har(path, psl)
        assert visits[0].transactions[0].response_size == 0
        assert [r.message for r in caplog.records] == [
            f"{path}: entry 0 has no response; recorded with status 0"]

    def test_pageless_entries_group_by_pageref(self, tmp_path):
        """Without ``pages`` every distinct pageref is one visit, and every
        entry without a pageref goes to ``page_0``."""
        entries = [{"request": {"url": "https://a.com/"}},
                   {"request": {"url": "https://a.com/x"}},
                   {"pageref": "p2", "request": {"url": "https://b.com/"}},
                   {"pageref": None, "request": {"url": "https://a.com/y"}},
                   {"pageref": "p2", "request": {"url": "https://b.com/z"}}]
        visits = load_har(self._har(tmp_path, {"log": {"entries": entries}}))
        assert [(v.visit_id, v.page_url, [t.request_url for t in v.transactions])
                for v in visits] == [
            ("page_0", "https://a.com/", ["https://a.com/", "https://a.com/x", "https://a.com/y"]),
            ("p2", "https://b.com/", ["https://b.com/", "https://b.com/z"])]

    def test_user_agent_of_earliest_request(self, tmp_path):
        def entry(t, *user_agents):
            return {"pageref": "p1", "startedDateTime": t,
                    "request": {"url": "https://a.com/", "headers": [
                        {"name": "user-agent", "value": ua} for ua in user_agents]}}

        entries = [entry("3", "Mozilla Chrome/85"), entry("2", "", "Safari/605.1"),
                   entry("1"), entry("4", "Safari/605.1")]
        doc = {"log": {"pages": [{"id": "p1", "title": "https://a.com/"}], "entries": entries}}
        # the entry at "2" sends an empty first User-Agent, so it is passed over
        assert load_har(self._har(tmp_path, doc))[0].user_agent_label is UaLabel.CHROME_LIKE

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.har"
        path.write_text("not json at all")
        with pytest.raises(MalformedHar):
            load_har(path)

    def test_missing_entries(self, tmp_path):
        with pytest.raises(MalformedHar):
            load_har(self._har(tmp_path, {"log": {}}))

    @pytest.mark.parametrize("doc,message", [
        ({"log": {"pages": [5], "entries": []}}, "page 0: not an object"),
        ({"log": {"pages": [{"id": "p1"}, "p2"], "entries": []}}, "page 1: not an object"),
        ({"log": {"pages": {"id": "p1"}, "entries": []}}, "log.pages must be a list"),
        ({"log": {"entries": 5}}, "log.entries must be a list"),
        ({"log": {"entries": {"request": {}}}}, "log.entries must be a list"),
        ({"log": 5}, "missing log/entries structure"),
        ([], "missing log/entries structure"),
        ({"log": {"pages": [{"id": ["p1"]}], "entries": []}},
         "page 0: id must be a string, a number or null"),
        ({"log": {"pages": [{"id": "p1"}, {"id": "p2"}, {"id": "p1"}], "entries": []}},
         "page 2: duplicate id 'p1'"),
        ({"log": {"entries": [{"pageref": {}, "request": {"url": "https://a.com/"}}]}},
         "entry 0: pageref must be a string, a number or null"),
    ], ids=["page-int", "second-page-string", "pages-object", "entries-int", "entries-object",
            "log-int", "doc-array", "page-id-array", "duplicate-page-id", "pageref-object"])
    def test_malformed_structure(self, tmp_path, doc, message):
        path = self._har(tmp_path, doc)
        with pytest.raises(MalformedHar) as exc:
            load_har(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_non_string_start_time_names_entry(self, tmp_path):
        entries = [{"pageref": "p1", "startedDateTime": "2020-10-01T00:00:00Z",
                    "request": {"url": "https://a.com/x"}},
                   {"pageref": "p1", "startedDateTime": 5, "request": {"url": "https://a.com/y"}}]
        doc = {"log": {"pages": [{"id": "p1", "title": "https://a.com/"}], "entries": entries}}
        with pytest.raises(MalformedHar, match="entry 1: startedDateTime must be a string"):
            load_har(self._har(tmp_path, doc))

    def test_synthesized_page_id_never_collides(self, tmp_path):
        """A page without ``id`` is named ``page_<n>`` after its position,
        unless the file names that id itself; then the next free one."""
        pages = [{"id": "page_1", "title": "https://a.com/"}, {"title": "https://b.com/"},
                 {"title": "https://c.com/"}, {"id": "page_3", "title": "https://d.com/"}]
        entries = [{"pageref": "page_1", "request": {"url": "https://a.com/x"}}]
        visits = load_har(self._har(tmp_path, {"log": {"pages": pages, "entries": entries}}))
        assert [(v.visit_id, v.page_url) for v in visits] == [
            ("page_1", "https://a.com/"), ("page_2", "https://b.com/"), ("page_4", "https://c.com/"),
            ("page_3", "https://d.com/")]
        assert [len(v.transactions) for v in visits] == [1, 0, 0, 0]

    def test_duplicate_page_id_names_only_ids_of_the_file(self, tmp_path):
        pages = [{"title": "https://a.com/"}, {"id": "page_0", "title": "https://b.com/"},
                 {"id": "page_0", "title": "https://c.com/"}]
        path = self._har(tmp_path, {"log": {"pages": pages, "entries": []}})
        with pytest.raises(MalformedHar) as exc:
            load_har(path)
        assert str(exc.value) == f"{path}: page 2: duplicate id 'page_0'"
        assert [v.visit_id for v in load_har(self._har(tmp_path, {"log": {"pages": pages[:2], "entries": []}}))] \
            == ["page_1", "page_0"]

    def test_pageless_default_visit_never_takes_a_pageref(self, tmp_path):
        entries = [{"pageref": "page_0", "request": {"url": "https://a.com/"}},
                   {"request": {"url": "https://b.com/"}}]
        visits = load_har(self._har(tmp_path, {"log": {"entries": entries}}))
        assert [(v.visit_id, v.page_url) for v in visits] == [("page_0", "https://a.com/"),
                                                              ("page_1", "https://b.com/")]

    @pytest.mark.parametrize("entry,message", [
        ({"request": {"url": "http://[::1"}}, "entry 0: bad URL: Invalid IPv6 URL"),
        ({"request": {"url": "https://a.com/"}, "_initiator": "http://[::1"},
         "entry 0: _initiator must be a URL string or any other JSON value"),
        ({"request": {}}, "entry 0: missing request.url"),
        ({}, "entry 0: missing request"),
        (5, "entry 0: not an object"),
        ({"request": {"url": "https://a.com/"}, "pageref": True},
         "entry 0: pageref must be a string, a number or null"),
    ])
    def test_bad_entry_names_it(self, tmp_path, entry, message):
        """A URL that does not split is a located error, not a bare ValueError."""
        path = self._har(tmp_path, {"log": {"entries": [entry]}})
        with pytest.raises(MalformedHar) as exc:
            load_har(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_page_url_that_does_not_split(self, tmp_path):
        path = self._har(tmp_path, {"log": {"pages": [{"id": "p", "title": "http://[::1"}], "entries": []}})
        with pytest.raises(MalformedHar, match=": page 0: bad URL: Invalid IPv6 URL$"):
            load_har(path)

    def test_numeric_page_ids_still_key_their_entries(self, tmp_path):
        doc = {"log": {"pages": [{"id": 1, "title": "https://a.com/"}],
                       "entries": [{"pageref": 1, "request": {"url": "https://a.com/x"}}]}}
        (visit,) = load_har(self._har(tmp_path, doc))
        assert visit.visit_id == 1 and len(visit.transactions) == 1

    def test_content_type_header_wins_over_post_mime_type(self, tmp_path):
        entries = [{"pageref": "p1", "startedDateTime": "1",
                    "request": {"url": "https://a.com/x", "method": "POST",
                                "headers": [{"name": "content-type", "value": "text/plain"}],
                                "postData": {"mimeType": "application/json", "text": "{}"}}},
                   {"pageref": "p1", "startedDateTime": "2",
                    "request": {"url": "https://a.com/y", "method": "POST",
                                "postData": {"mimeType": "application/json", "text": "{}"}}}]
        doc = {"log": {"pages": [{"id": "p1", "title": "https://a.com/"}], "entries": entries}}
        visits = load_har(self._har(tmp_path, doc))
        assert [t.post_content_type for t in visits[0].transactions] == ["text/plain", "application/json"]

    @pytest.mark.parametrize("pages,url,message", [
        ([], 5, "entry 0: request.url must be a string"),
        ([{"id": "p1", "title": 5}], "https://a.com/", "page 0: title must be a string or null"),
    ])
    def test_non_string_url_is_malformed(self, tmp_path, pages, url, message):
        doc = {"log": {"pages": pages, "entries": [{"pageref": "p1", "request": {"url": url}}]}}
        with pytest.raises(MalformedHar, match=message):
            load_har(self._har(tmp_path, doc))

    def test_unknown_pageref(self, tmp_path):
        doc = {"log": {"pages": [{"id": "p1", "title": "https://a.com/"}],
                       "entries": [{"pageref": "p2",
                                    "request": {"url": "https://a.com/x"}}]}}
        with pytest.raises(MalformedHar) as exc:
            load_har(self._har(tmp_path, doc))
        assert exc.value.entry_index == 0


    @pytest.mark.parametrize("side,header", [
        ("request", {"value": "a=1"}),
        ("request", {"name": "Cookie"}),
        ("response", {"name": "Set-Cookie"}),
        ("response", {"name": "Set-Cookie", "value": 5}),
        ("response", "Set-Cookie: a=1"),
    ])
    def test_bad_header_names_entry(self, tmp_path, side, header):
        entry = {"pageref": "p1", "request": {"url": "https://a.com/x", "headers": []},
                 "response": {"status": 200, "headers": []}}
        entry[side]["headers"] = [header]
        doc = {"log": {"pages": [{"id": "p1", "title": "https://a.com/"}],
                       "entries": [{"pageref": "p1", "request": {"url": "https://a.com/"}}, entry]}}
        with pytest.raises(MalformedHar, match=f": entry 1: {side}.headers must be a list of objects "
                           "with a string name and value") as exc:
            load_har(self._har(tmp_path, doc))
        assert exc.value.entry_index == 1

    @pytest.mark.parametrize("response,message", [
        ("ok", "response must be an object"),
        ([200], "response must be an object"),
        ({"status": 200, "content": "text/html"}, "response.content must be an object"),
        ({"status": "OK"}, "response.status must be an integer"),
        ({"status": [200]}, "response.status must be an integer"),
        ({"status": "200"}, "response.status must be an integer"),
        ({"status": 200, "content": {"size": "big"}}, "response.content.size must be an integer or null"),
        ({"status": 200, "content": {"size": [1]}}, "response.content.size must be an integer or null"),
        ({"status": 200, "content": {"size": "7"}}, "response.content.size must be an integer or null"),
        ({"status": 200, "content": {"size": True}}, "response.content.size must be an integer or null"),
        ({"status": 200, "content": {"mimeType": 5}}, "response.content.mimeType must be a string"),
        ({"status": 200, "content": {"mimeType": ["image/gif"]}},
         "response.content.mimeType must be a string"),
    ])
    def test_malformed_response_names_entry(self, tmp_path, response, message):
        doc = {"log": {"pages": [{"id": "p1", "title": "https://a.com/"}],
                       "entries": [{"pageref": "p1", "request": {"url": "https://a.com/"}},
                                   {"pageref": "p1", "request": {"url": "https://a.com/x"},
                                    "response": response}]}}
        with pytest.raises(MalformedHar, match=f": entry 1: {message}") as exc:
            load_har(self._har(tmp_path, doc))
        assert exc.value.entry_index == 1

    @pytest.mark.parametrize("server_ip", [5, ["192.0.2.1"], {"ip": "192.0.2.1"}])
    def test_non_string_server_ip_names_entry(self, tmp_path, server_ip):
        doc = {"log": {"pages": [{"id": "p1", "title": "https://a.com/"}],
                       "entries": [{"pageref": "p1", "request": {"url": "https://a.com/"}},
                                   {"pageref": "p1", "request": {"url": "https://a.com/x"},
                                    "serverIPAddress": server_ip}]}}
        with pytest.raises(MalformedHar, match=": entry 1: serverIPAddress must be a string") as exc:
            load_har(self._har(tmp_path, doc))
        assert exc.value.entry_index == 1

    @pytest.mark.parametrize("server_ip,remote_ip", [("192.0.2.1", "192.0.2.1"), ("", None), (None, None)])
    def test_server_ip_string_or_null(self, tmp_path, server_ip, remote_ip):
        doc = {"log": {"pages": [{"id": "p1", "title": "https://a.com/"}],
                       "entries": [{"pageref": "p1", "request": {"url": "https://a.com/"},
                                    "serverIPAddress": server_ip}]}}
        assert load_har(self._har(tmp_path, doc))[0].transactions[0].remote_ip == remote_ip

    def _second_entry(self, tmp_path, request=None, **fields):
        entry = {"pageref": "p1", "request": {"url": "https://a.com/x", **(request or {})}, **fields}
        doc = {"log": {"pages": [{"id": "p1", "title": "https://a.com/"}],
                       "entries": [{"pageref": "p1", "request": {"url": "https://a.com/"}}, entry]}}
        return self._har(tmp_path, doc)

    @pytest.mark.parametrize("frame", [{"url": 5}, {"url": ["https://a.com/t.js"]}, {"url": "http://[::1"}])
    def test_non_string_call_frame_url_names_entry(self, tmp_path, frame):
        path = self._second_entry(tmp_path, _initiator={"stack": {"callFrames": [frame]}})
        with pytest.raises(MalformedHar, match=": entry 1: _initiator.stack.callFrames must be a list of "
                           "objects whose url is null or a URL string, or null") as exc:
            load_har(path)
        assert exc.value.entry_index == 1

    @pytest.mark.parametrize("initiator,message", [
        ({"stack": {"callFrames": ["https://a.com/t.js"]}}, "_initiator.stack.callFrames must be a list"),
        ({"stack": {"callFrames": [5]}}, "_initiator.stack.callFrames must be a list"),
        ({"stack": {"callFrames": "https://a.com/t.js"}}, "_initiator.stack.callFrames must be a list"),
        ({"stack": ["https://a.com/t.js"]}, "_initiator.stack must be an object"),
    ])
    def test_malformed_initiator_stack_names_entry(self, tmp_path, initiator, message):
        with pytest.raises(MalformedHar, match=f": entry 1: {message}") as exc:
            load_har(self._second_entry(tmp_path, _initiator=initiator))
        assert exc.value.entry_index == 1

    @pytest.mark.parametrize("initiator,initiators", [
        ({"type": "parser", "url": "https://a.com/"}, ()),
        ({"stack": None}, ()),
        ({"stack": {"callFrames": [{"url": ""}, {}, {"url": None}, {"url": "https://a.com/t.js"}]}},
         ("https://a.com/t.js",)),
        ("https://a.com/t.js", ("https://a.com/t.js",)),
        (5, ()),
    ])
    def test_initiator_forms(self, tmp_path, initiator, initiators):
        visit = load_har(self._second_entry(tmp_path, _initiator=initiator))[0]
        assert visit.transactions[1].initiators == initiators

    @pytest.mark.parametrize("post", ["a=1", ["a=1"], 5])
    def test_non_object_post_data_names_entry(self, tmp_path, post):
        path = self._second_entry(tmp_path, {"method": "POST", "postData": post})
        with pytest.raises(MalformedHar, match=": entry 1: request.postData must be an object") as exc:
            load_har(path)
        assert exc.value.entry_index == 1

    @pytest.mark.parametrize("post,key", [({"text": 5}, "text"), ({"text": "a=1", "mimeType": 5}, "mimeType")])
    def test_non_string_post_data_fields_name_entry(self, tmp_path, post, key):
        path = self._second_entry(tmp_path, {"method": "POST", "postData": post})
        with pytest.raises(MalformedHar, match=f": entry 1: request.postData.{key} must be a string") as exc:
            load_har(path)
        assert exc.value.entry_index == 1

    @pytest.mark.parametrize("method", [5, None, ["GET"]])
    def test_non_string_method_names_entry(self, tmp_path, method):
        path = self._second_entry(tmp_path, {"method": method})
        with pytest.raises(MalformedHar, match=": entry 1: request.method must be a string") as exc:
            load_har(path)
        assert exc.value.entry_index == 1


class TestDns:
    def test_flat_and_zdns_forms(self, tmp_path):
        lines = [
            {"name": "m.shop.com", "answers": [
                {"name": "m.shop.com", "type": "CNAME", "answer": "t.trk.net"}]},
            {"name": "t.trk.net", "data": {"answers": [
                {"name": "t.trk.net", "type": "A", "answer": "203.0.113.7"},
                {"name": "t.trk.net", "type": "AAAA", "answer": "2001:db8::1"},
                {"name": "t.trk.net", "type": "TXT", "answer": "ignored"}]},
             "month": "2020-10"},
        ]
        path = corpusgen.write_jsonl(lines, tmp_path / "dns.jsonl")
        store = load_dns(path)
        assert store.cname_target("m.shop.com") == "t.trk.net"
        assert set(store.a_records("t.trk.net")) == {"203.0.113.7", "2001:db8::1"}

    def test_missing_name(self, tmp_path):
        path = corpusgen.write_jsonl([{"answers": []}], tmp_path / "dns.jsonl")
        with pytest.raises(SchemaViolation):
            load_dns(path)


    @pytest.mark.parametrize("line", [
        {"name": "a.test", "answers": 5},
        {"name": "a.test", "answers": {"type": "A", "answer": "192.0.2.1"}},
        {"name": "a.test", "data": {"answers": "192.0.2.1"}},
        {"name": "a.test", "data": ["192.0.2.1"]},
        {"name": "a.test", "answers": [{"type": "CNAME", "answer": 5}]},
        {"name": "a.test", "answers": [{"type": "A", "answer": ["192.0.2.1"]}]},
        {"name": "a.test", "answers": [{"type": 5, "answer": "b.test"}]},
        {"name": "a.test", "answers": [{"name": 5, "type": "CNAME", "answer": "b.test"}]},
        ["a.test"],
    ])
    def test_malformed_answers_name_the_line(self, tmp_path, line):
        good = corpusgen.dns_line("b.test", [("b.test", "A", "192.0.2.1")])
        path = corpusgen.write_jsonl([good, line], tmp_path / "dns.jsonl")
        with pytest.raises(SchemaViolation) as exc:
            load_dns(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("line,message", [
        ({"name": 5, "answers": [{"name": "a.test", "type": "A", "answer": "192.0.2.1"}]},
         "name must be a string"),
        ({"name": "a.test", "answers": [{"type": "A"}]}, "missing answer.answer"),
        ({"name": "a.test", "answers": [{"name": None, "type": "A", "answer": "192.0.2.1"}]},
         "answer.name must be a string"),
        ({"name": "a.test", "data": 0}, "data must be an object or null"),
        ({"name": "a.test", "answers": ["192.0.2.1"]}, "answers must be a list of objects, or null"),
    ])
    def test_dns_fields_name_the_line(self, tmp_path, line, message):
        path = corpusgen.write_jsonl([line], tmp_path / "dns.jsonl")
        with pytest.raises(SchemaViolation) as exc:
            load_dns(path)
        assert str(exc.value) == f"{path}:1: {message}"

    def test_answer_name_defaults_to_the_line_name(self, tmp_path):
        path = corpusgen.write_jsonl([{"name": "a.test", "answers": [{"type": "cname", "answer": "b.test"}]}],
                                     tmp_path / "dns.jsonl")
        assert load_dns(path).cname_target("a.test") == "b.test"

    @pytest.mark.parametrize("month", [5, ["2020-10"], {"m": 1}])
    def test_mistyped_month_names_the_line(self, tmp_path, month):
        good = corpusgen.dns_line("b.test", [("b.test", "A", "192.0.2.1")])
        line = {"name": "a.test", "month": month,
                "answers": [{"name": "a.test", "type": "CNAME", "answer": "b.test"}]}
        path = corpusgen.write_jsonl([good, line], tmp_path / "dns.jsonl")
        with pytest.raises(SchemaViolation, match="month must be a string or null") as exc:
            load_dns(path)
        assert exc.value.line == 2


class TestSignaturesAndRanking:
    def test_signatures(self, tmp_path):
        path = corpusgen.write_signatures(tmp_path / "sigs.json")
        sigs = load_signatures(path)
        assert [s.tracker_id for s in sigs] == ["eulertrack", "pixelstats"]
        index = SignatureIndex(sigs)
        assert index.cname_positions(["x.eulertrack.net"]) == {0}
        assert index.cname_positions(["eulertrack.net.evil.com"]) == set()

    @pytest.mark.parametrize("markers", [
        [{"name": "uid"}], [{"location": "cookie"}], [5], ["uid"], [["cookie", "uid"]], 5, None,
        [{"location": 5, "name": "uid"}], "", {},
    ])
    def test_malformed_id_marker_rejected(self, tmp_path, markers):
        """``id_markers`` are not kept, but each entry must still be an
        object with a string location and name."""
        sig = {"tracker_id": "t", "cname_suffixes": ["t.net"], "path_patterns": ["/*"],
               "id_markers": markers}
        path = tmp_path / "sigs.json"
        path.write_text(json.dumps([sig]))
        with pytest.raises(SchemaViolation) as exc:
            load_signatures(path)
        assert str(exc.value) == \
            f"{path}: signature 0: id_markers must be a list of objects with a string location and name"

    @pytest.mark.parametrize("entry,message", [
        ("eulertrack", "not an object"),
        ({"cname_suffixes": ["t.net"], "path_patterns": ["/*"]}, "missing tracker_id"),
    ])
    def test_signature_entry_names_its_index(self, tmp_path, entry, message):
        path = tmp_path / "sigs.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(SchemaViolation) as exc:
            load_signatures(path)
        assert str(exc.value) == f"{path}: signature 0: {message}"

    def test_signature_without_matcher_rejected(self, tmp_path):
        path = tmp_path / "sigs.json"
        path.write_text(json.dumps([{"tracker_id": "bad", "path_patterns": ["/x"]}]))
        with pytest.raises(SchemaViolation):
            load_signatures(path)

    @pytest.mark.parametrize("key", ["cname_suffixes", "cidr_ranges", "path_patterns"])
    @pytest.mark.parametrize("value", ["abc", [5], [["x.net"]], None, {"x": 1}])
    def test_signature_lists_must_hold_strings(self, tmp_path, key, value):
        good = {"tracker_id": "good", "cname_suffixes": ["good.net"], "path_patterns": ["/*"]}
        bad = {"tracker_id": "bad", "cname_suffixes": ["bad.net"], "cidr_ranges": ["192.0.2.0/24"],
               "path_patterns": ["/*"], key: value}
        path = tmp_path / "sigs.json"
        path.write_text(json.dumps([good, bad]))
        with pytest.raises(SchemaViolation, match=f"signature 1: {key} must be a list of strings"):
            load_signatures(path)

    @pytest.mark.parametrize("value", [5, None, ["bad"], {"id": "bad"}])
    def test_tracker_id_must_be_a_string(self, tmp_path, value):
        good = {"tracker_id": "good", "cname_suffixes": ["good.net"], "path_patterns": ["/*"]}
        bad = {"tracker_id": value, "cname_suffixes": ["bad.net"], "path_patterns": ["/*"]}
        path = tmp_path / "sigs.json"
        path.write_text(json.dumps([good, bad]))
        with pytest.raises(SchemaViolation, match="signature 1: tracker_id must be a string"):
            load_signatures(path)

    def test_ranking_skips_header(self, tmp_path):
        path = tmp_path / "rank.csv"
        path.write_text("rank,domain\n1,example.com\n2,shop.com\n")
        assert load_ranking(path) == {"example.com": 1, "shop.com": 2}

    def test_ranking_bad_rank(self, tmp_path):
        path = tmp_path / "rank.csv"
        path.write_text("1,example.com\nnope,shop.com\n")
        with pytest.raises(SchemaViolation):
            load_ranking(path)
