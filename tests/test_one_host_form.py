"""One hostname form: ``sitectx.canonical_host`` (lower-case, no trailing
dots), applied where a name enters the program, so every stage joins hosts
as they are.

The guard reads the package's source: the rule is written once, URLs are
taken apart by ``model.split_url`` alone (``defense._substitute_host``
rebuilds one), and a host's label suffixes are walked by one function.  The
other tests feed a fully-qualified name (``m.shop.com.``) to each stage
whose joins once disagreed with the same name written without the dot.
"""

import ast
import json
from pathlib import Path

import pytest

import cnametrack
import corpusgen
from cnametrack.cli import main
from cnametrack.defense import match_plain
from cnametrack.detect import Context, Mechanism, PublisherDetection, candidate_scan, extract_features
from cnametrack.dnsgraph import DnsRecordStore
from cnametrack.filterlist import parse_rule
from cnametrack.history import MonthDataset, backward_iterate, cross_validate, external_trackers, host_paths
from cnametrack.ingest import load_crawl_jsonl, load_ranking
from cnametrack.model import HttpTransaction, PageVisit, TrackerSignature
from cnametrack.reports import rank_bins
from cnametrack.sitectx import Relation

PACKAGE = Path(cnametrack.__file__).parent


def _calls():
    """(module, enclosing function, call node) of each call in the package."""
    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call):
                yield module, where, child
            yield from visit(child, module, inner)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        yield from visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), module, None)


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_the_host_rule_is_written_once():
    sites = [(module, where) for module, where, call in _calls()
             if _callee(call) == "rstrip" and [ast.unparse(a) for a in call.args] == ["'.'"]]
    assert sites == [("sitectx.py", "canonical_host")]


def test_urls_are_split_only_by_split_url():
    sites = {(module, where) for module, where, call in _calls() if _callee(call) == "urlsplit"}
    assert {module for module, _ in sites} <= {"model.py", "defense.py"}, sorted(sites)
    assert {where for module, where in sites if module == "defense.py"} <= {"_substitute_host"}


def test_label_suffixes_is_defined_once():
    defined = [(str(path.relative_to(PACKAGE)), node.name)
               for path in sorted(PACKAGE.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") == "label_suffixes"]
    assert defined == [("sitectx.py", "label_suffixes")]


OMNITURE = TrackerSignature("omniture", cname_suffixes=("2o7.net",), path_patterns=("/b/ss/*/collect",))


def test_validate_partitions_a_fully_qualified_host(tmp_path, psl):
    """A detected host is backed by the external data, and is never also
    reported as absent from the corpus."""
    path = corpusgen.write_jsonl([
        corpusgen.visit_record("v0", "https://www.alpha.com/"),
        corpusgen.txn_record("v0", "https://m.alpha.com./b/ss/v1/collect")], tmp_path / "c.jsonl")
    corpus = load_crawl_jsonl(path, psl)
    dns = DnsRecordStore()
    dns.add("m.alpha.com", "CNAME", "x0.2o7.net")
    external = {"2020-10": dns}
    monthly = backward_iterate([MonthDataset("2020-10", corpus, dns)], [OMNITURE], psl)
    trackers = external_trackers(external, [OMNITURE])
    paths = {"2020-10": host_paths(corpus, trackers["2020-10"])}
    assert paths == {"2020-10": {"m.alpha.com": {"/b/ss/v1/collect"}}}
    report = cross_validate(monthly, external, trackers, paths, [OMNITURE], None, psl)
    assert report.correctness == []
    assert report.completeness == dict.fromkeys(report.completeness, [])


def test_features_count_a_fully_qualified_host_once(psl):
    dns = DnsRecordStore()
    dns.add("m.shop.com", "CNAME", "c.trk.net")
    visit = PageVisit("https://www.shop.com/", "v1", site="shop.com", transactions=[
        HttpTransaction("https://m.shop.com/ea/x"), HttpTransaction("https://m.shop.com./ea/y")])
    (agg,) = candidate_scan([visit], dns, psl, min_sites=1)
    assert extract_features(agg).hostnames == 1


@pytest.mark.parametrize("option,page", [("domain=shop.com", "https://shop.com./"),
                                         ("domain=shop.com.", "https://shop.com/"),
                                         ("domain=SHOP.com.", "https://www.shop.com/")])
def test_domain_option_matches_the_same_name(option, page):
    rule = parse_rule(f"||trk.net^${option}")
    page_host = PageVisit(page, "v").page_host
    assert match_plain("https://px.trk.net/p.gif", Relation.CROSS_SITE, [rule], page_host).blocked
    excluded = parse_rule(f"||trk.net^$domain=~{option.partition('=')[2]}")
    assert not match_plain("https://px.trk.net/p.gif", Relation.CROSS_SITE, [excluded], page_host).blocked


def test_ranking_domain_with_trailing_dot_is_binned(tmp_path):
    ranking = tmp_path / "ranking.csv"
    ranking.write_text("rank,domain\n1,shop.com.\n2,Other.com\n")
    ranks = load_ranking(ranking)
    assert ranks == {"shop.com": 1, "other.com": 2}
    det = PublisherDetection("shop.com", "trk", Context.SAME_SITE, [], Mechanism.CNAME)
    (rank_bin,) = rank_bins([det], ranks, bin_size=2)
    assert rank_bin["same_site_pct"] == 50.0


def test_written_hosts_are_canonical_urls_as_captured(tmp_path):
    """publishers.json and the month files give the evidence host canonical
    and its URL as captured; leaks.jsonl gives the setter's host canonical."""
    month = "2020-01"
    url = "https://M.Shop.com./ea/x"
    corpus = corpusgen.write_jsonl([
        corpusgen.visit_record("v1", "https://www.shop.com./", month=month),
        corpusgen.txn_record("v1", "https://WWW.shop.com./", content_type="text/html",
                             set_cookie="uid=abcdefghij12345; Max-Age=86400"),
        corpusgen.txn_record("v1", url, cookie_header="uid=abcdefghij12345")], tmp_path / "corpus.jsonl")
    dns = corpusgen.write_jsonl([corpusgen.dns_line("m.shop.com", [("m.shop.com", "CNAME", "c.trk.net")], month)],
                                tmp_path / "dns.jsonl")
    sigs = corpusgen.write_signatures(tmp_path / "sigs.json", [
        {"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/ea/*"]}])
    (tmp_path / "months.json").write_text(json.dumps([{"month": month, "corpus": str(corpus), "dns": str(dns)}]))
    detect = ["--corpus", corpus, "--dns", dns, "--signatures", sigs]
    for command, flags in (("detect", detect), ("leaks", detect),
                           ("history", ["--months", tmp_path / "months.json", "--signatures", sigs])):
        assert main([str(a) for a in (command, *flags, "--out", tmp_path / command)]) == 0
    evidence = [{"visit_id": "v1", "index": 1, "url": url, "host": "m.shop.com"}]
    for doc in (tmp_path / "detect" / "publishers.json", tmp_path / "history" / f"month_{month}.json"):
        assert [d["evidence"] for d in json.loads(doc.read_text())["detections"]] == [evidence]
    leaks = [json.loads(line) for line in (tmp_path / "leaks" / "leaks.jsonl").read_text().splitlines()]
    assert [(f["setter_origin"], f["carrier_url"]) for f in leaks] == [("www.shop.com", url)]
