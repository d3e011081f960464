"""Loaders are total: every input gives a result or a toolkit error.

Each test takes a valid input, sets one field (or one line, or one element)
to an arbitrary JSON value or deletes it, and loads it.  The load must
return, or raise a ``CnametrackError``; any other exception is a fault.  The
text formats (ranking CSV, filter list) get arbitrary lines instead.  The
last test runs ``cli.main`` on mutated valid inputs and allows only exit
codes 0 and 1 (so does the one for the external DNS manifest, which only
``validate`` reads).  Examples are derandomized with a fixed budget, so the run is
the same every time.
"""

import copy
import json
import os
import tempfile
from argparse import Namespace
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpusgen
from cnametrack import cli, reports
from cnametrack.errors import CnametrackError
from cnametrack.filterlist import load_filter_list
from cnametrack.ingest import load_crawl_jsonl, load_dns, load_har, load_ranking, load_signatures

FUZZ = settings(derandomize=True, max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
DELETE = object()

# values that sit on a kind's edge, drawn as often as arbitrary JSON
EDGES = ["", "7", "http://[::1", "https://a.com:99999/x", "2020-13", "A", 0, -1, 1.5, True, False, None,
         [], {}, ["x"], [5], [["a", "b"]], [{"name": "a", "value": "b"}], [{}]]
json_values = st.sampled_from(EDGES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

CORPUS = [
    corpusgen.visit_record("v1", "https://www.shop.com/", month="2020-10"),
    corpusgen.txn_record("v1", "https://metrics.shop.com/ea/collect?uid=1", cookie_header="a=1; b=2",
                         set_cookie="uid=x; Max-Age=60", remote_ip="203.0.113.7",
                         initiators=["https://www.shop.com/t.js"], post_body="uid=x",
                         post_content_type="application/x-www-form-urlencoded"),
    {**corpusgen.txn_record("v1", "https://www.shop.com/big", post_body="x"),
     "post_body_digest": "ab" * 32, "post_body_truncated": True},
    corpusgen.js_cookie_record("v1", "js=1; path=/", ["https://cdn.widgets.net/w.js"]),
]
HAR = {"log": {"pages": [{"id": "p1", "title": "https://www.shop.com/"}, {"_url": "https://b.com/"}],
               "entries": [{
                   "pageref": "p1", "startedDateTime": "2020-10-01T00:00:01Z",
                   "request": {"method": "POST", "url": "https://metrics.shop.com/ea/collect",
                               "headers": [{"name": "Cookie", "value": "a=1"},
                                           {"name": "User-Agent", "value": "Chrome/85"}],
                               "postData": {"mimeType": "text/plain", "text": "a=1"}},
                   "response": {"status": 200, "headers": [{"name": "Set-Cookie", "value": "x=y"}],
                                "content": {"size": 43, "mimeType": "image/gif"}},
                   "serverIPAddress": "203.0.113.7",
                   "_initiator": {"stack": {"callFrames": [{"url": "https://www.shop.com/t.js"}]}},
               }]}}
DNS = [corpusgen.dns_line("metrics.shop.com", [("metrics.shop.com", "CNAME", "t.eulertrack.net")],
                          month="2020-10"),
       {"name": "t.eulertrack.net", "data": {"answers": [
           {"name": "t.eulertrack.net", "type": "A", "answer": "203.0.113.7"}]}}]
PUBLISHERS = {"detections": [{"publisher": "shop.com", "tracker": "eulertrack", "context": "same-site",
                              "mechanism": "cname", "evidence": [{"visit_id": "v1", "index": 0,
                                                                 "url": "https://metrics.shop.com/ea/x",
                                                                 "host": "metrics.shop.com"}]}]}
MONTHS = [{"month": "2020-10", "corpus": "corpus.jsonl", "dns": "dns.jsonl"},
          {"month": "2020-09", "corpus": "corpus.jsonl", "dns": "dns.jsonl"}]
PSL = "com\nnet\nio\n"


def _paths(doc, prefix=()):
    """Every path into ``doc``, the empty path (the whole document) first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


# field names a mutation may add to an object
FIELDS = ("url", "status", "response_size", "version", "post_body_truncated", "post_body_digest",
          "visit_id", "record_type", "size", "id", "pageref", "name", "answers", "data", "month",
          "id_markers", "cidr_ranges", "path_patterns", "index", "evidence", "corpus", "dns")


@st.composite
def mutations(draw, doc):
    """``doc`` with one value replaced or deleted, or with one of ``FIELDS``
    set on one of its objects."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(json_values | st.just(DELETE))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if isinstance(target, dict) and draw(st.booleans()):
        path = path[:-1] + (draw(st.sampled_from(FIELDS)),)
    if not path:
        return doc if value is DELETE else value
    if value is DELETE and isinstance(target, list):
        del target[path[-1]]
    elif value is DELETE:
        target.pop(path[-1], None)
    else:
        target[path[-1]] = value
    return doc


def _write(path: Path, doc, lines: bool = False) -> Path:
    text = "".join(json.dumps(v) + "\n" for v in doc) if lines else json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    return path


def _total(load, *args):
    try:
        load(*args)
    except CnametrackError:
        pass


@FUZZ
@given(doc=mutations(CORPUS))
def test_crawl_jsonl_total(doc):
    with tempfile.TemporaryDirectory() as tmp:
        lines = doc if isinstance(doc, list) else [doc]
        _total(load_crawl_jsonl, _write(Path(tmp) / "c.jsonl", lines, lines=True))


@FUZZ
@given(doc=mutations(HAR))
def test_har_total(doc):
    with tempfile.TemporaryDirectory() as tmp:
        _total(load_har, _write(Path(tmp) / "c.har", doc))


@FUZZ
@given(doc=mutations(DNS))
def test_dns_total(doc):
    with tempfile.TemporaryDirectory() as tmp:
        lines = doc if isinstance(doc, list) else [doc]
        _total(load_dns, _write(Path(tmp) / "dns.jsonl", lines, lines=True))


@FUZZ
@given(doc=mutations(corpusgen.TRACKER_SIGNATURES))
def test_signatures_total(doc):
    with tempfile.TemporaryDirectory() as tmp:
        _total(load_signatures, _write(Path(tmp) / "sigs.json", doc))


@FUZZ
@given(doc=mutations(PUBLISHERS))
def test_publishers_total(doc):
    with tempfile.TemporaryDirectory() as tmp:
        _total(reports.load_detections, _write(Path(tmp) / "publishers.json", doc))


@FUZZ
@given(doc=mutations({"inputs": {"corpus": "0" * 64}, "input_paths": {"corpus": "c.jsonl"}}))
def test_manifest_total(doc):
    with tempfile.TemporaryDirectory() as tmp:
        _write(Path(tmp) / "manifest.json", doc)
        _total(reports.check_manifest, tmp)


@FUZZ
@given(doc=mutations(MONTHS))
def test_month_manifest_total(doc):
    with tempfile.TemporaryDirectory() as tmp:
        _total(cli._month_entries, Namespace(months=str(_write(Path(tmp) / "months.json", doc))))


lines = st.lists(st.text(max_size=12) | st.sampled_from(["1,a.com", "rank,domain", "x,", "||a.com^",
                                                          "@@||b.com^$script", "/ad/*$image,domain=a.com"]),
                 max_size=5)


@FUZZ
@given(rows=lines)
def test_ranking_and_filter_list_total(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "list.txt"
        path.write_text("\n".join(rows), encoding="utf-8")
        _total(load_ranking, path)
        _total(load_filter_list, path)


INPUTS = {"corpus.jsonl": CORPUS, "dns.jsonl": DNS, "sigs.json": corpusgen.TRACKER_SIGNATURES,
          "months.json": MONTHS, "external.json": {"2020-10": "dns.jsonl"}}


def _cli(name: str, doc) -> int:
    """The exit code of ``validate`` (for a month manifest) or ``detect`` on
    the valid inputs, with ``name`` replaced by ``doc``; the manifests' paths
    are relative to the working directory."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for path, value in {**INPUTS, name: doc}.items():
                _write(Path(path), value, lines=path.endswith(".jsonl") and isinstance(value, list))
            Path("psl.dat").write_text(PSL, encoding="utf-8")
            if name in ("months.json", "external.json"):
                argv = ["validate", "--months", "months.json", "--external-dns", "external.json"]
            else:
                argv = ["detect", "--corpus", "corpus.jsonl", "--dns", "dns.jsonl"]
            return cli.main(argv + ["--signatures", "sigs.json", "--psl", "psl.dat", "--out", "out"])
        finally:
            os.chdir(old)


def test_unmutated_inputs_exit_0():
    """The fuzzed commands succeed on the valid inputs, so a run that fails
    fails on its mutation."""
    assert _cli("corpus.jsonl", CORPUS) == 0
    assert _cli("external.json", INPUTS["external.json"]) == 0


@FUZZ
@given(doc=mutations(INPUTS["external.json"]))
def test_external_month_manifest_total(doc):
    assert _cli("external.json", doc) in (0, 1)


@settings(derandomize=True, max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(INPUTS)), data=st.data())
def test_cli_exits_0_or_1_on_mutated_inputs(name, data):
    assert _cli(name, data.draw(mutations(INPUTS[name]))) in (0, 1)
