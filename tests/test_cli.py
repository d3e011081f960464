"""End-to-end CLI tests over the synthetic planted corpus."""

import csv
import json
from pathlib import Path

import pytest

import corpusgen
from cnametrack.cli import build_parser, main
from cnametrack.errors import StaleInputs


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Planted corpus, DNS, signatures, filters and ranking on disk."""
    root = tmp_path_factory.mktemp("world")
    corpora, dns_lines, truth = corpusgen.planted_world()
    paths = {"truth": truth, "root": root}
    manifest = []
    for month in corpusgen.MONTHS:
        cpath = corpusgen.write_jsonl(corpora[month], root / f"corpus-{month}.jsonl")
        dpath = corpusgen.write_jsonl(dns_lines[month], root / f"dns-{month}.jsonl")
        manifest.append({"month": month, "corpus": str(cpath), "dns": str(dpath)})
    paths["corpus"] = manifest[0]["corpus"]
    paths["dns"] = manifest[0]["dns"]
    months_path = root / "months.json"
    months_path.write_text(json.dumps(manifest))
    paths["months"] = str(months_path)
    paths["signatures"] = str(corpusgen.write_signatures(root / "sigs.json"))
    filters = root / "filters.txt"
    filters.write_text("! test list\n||eulertrack.net^\n||pixelstats.io^\n")
    paths["filters"] = str(filters)
    ranking = root / "ranking.csv"
    with open(ranking, "w") as fh:
        fh.write("rank,domain\n")
        for i in range(corpusgen.N_PLANTED):
            fh.write(f"{i + 1},site{i:02d}.com\n")
        fh.write(f"{10001},shop00.net\n")
    paths["ranking"] = str(ranking)
    return paths


def run(args):
    return main([str(a) for a in args])


class TestDetect:
    def test_detect_outputs(self, world, tmp_path):
        out = tmp_path / "out"
        assert run(["detect", "--corpus", world["corpus"], "--dns", world["dns"],
                    "--signatures", world["signatures"], "--out", out]) == 0
        doc = json.loads((out / "publishers.json").read_text())
        got = {(d["publisher"], d["tracker"], d["context"])
               for d in doc["detections"]}
        assert got == world["truth"]
        assert doc["schema_version"] == 1
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(doc["detections"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"corpus", "dns", "signatures"}

    def test_missing_corpus_flag(self, world, tmp_path):
        assert run(["detect", "--dns", world["dns"],
                    "--signatures", world["signatures"], "--out", tmp_path]) == 1

    def test_psl_with_a_rule_below_an_exception_exits_1(self, world, tmp_path, capsys):
        psl = tmp_path / "psl.dat"
        psl.write_text("*.kawasaki.jp\n!city.kawasaki.jp\nfoo.city.kawasaki.jp\n")
        assert run(["detect", "--corpus", world["corpus"], "--dns", world["dns"],
                    "--signatures", world["signatures"], "--psl", psl, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (f"error: {psl}: rule 'foo.city.kawasaki.jp' lies below "
                                           "the exception rule '!city.kawasaki.jp'\n")
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, world, tmp_path):
        assert run(["detect", "--corpus", "/nonexistent.jsonl",
                    "--dns", world["dns"], "--signatures", world["signatures"],
                    "--out", tmp_path]) == 1

    @pytest.mark.parametrize("field,value", [("url", 5), ("remote_ip", 5), ("initiators", "abc")])
    def test_mistyped_corpus_field_exits_1_naming_the_line(self, world, tmp_path, capsys, field, value):
        rec = corpusgen.txn_record("v1", "https://www.shop00.net/x")
        rec[field] = value
        corpus = corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://www.shop00.net/"), rec],
                                       tmp_path / "corpus.jsonl")
        assert run(["detect", "--corpus", corpus, "--dns", world["dns"],
                    "--signatures", world["signatures"], "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {corpus}:2: {field} must be " + (
            "a list of URL strings\n" if field == "initiators" else
            "a string\n" if field == "url" else "a string or null\n")

    def test_threads_byte_identical(self, world, tmp_path):
        outs = []
        for threads in (1, 8):
            out = tmp_path / f"t{threads}"
            assert run(["detect", "--corpus", world["corpus"], "--dns",
                        world["dns"], "--signatures", world["signatures"],
                        "--threads", threads, "--out", out]) == 0
            outs.append(out)
        for name in ("publishers.json", "summary.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestLeaksDefense:
    def test_leaks_command(self, tmp_path, world):
        records, dns_lines, expected = corpusgen.leak_world()
        cpath = corpusgen.write_jsonl(records, tmp_path / "leaks.jsonl")
        dpath = corpusgen.write_jsonl(dns_lines, tmp_path / "leakdns.jsonl")
        sig_path = corpusgen.write_signatures(tmp_path / "sig.json",
                                              [corpusgen.LEAK_TRACKER_SIG])
        out = tmp_path / "out"
        assert run(["leaks", "--corpus", cpath, "--dns", dpath,
                    "--signatures", sig_path, "--out", out]) == 0
        findings = [json.loads(line)
                    for line in (out / "leaks.jsonl").read_text().splitlines()]
        assert len(findings) == 12
        with open(out / "leak_rollup.csv") as fh:
            rollup = {r["channel"]: int(r["distinct_sites"])
                      for r in csv.DictReader(fh)}
        assert rollup == {"cookie-header": 6, "post-body": 3, "url-param": 3}

    @pytest.mark.parametrize("field", ["stack", "initiators"])
    def test_url_that_does_not_split_exits_1_naming_the_line(self, tmp_path, capsys, field):
        """A script URL the leak audit would split is checked at load: the
        command exits 1 naming the line instead of raising a ValueError."""
        records, dns_lines, _expected = corpusgen.leak_world()
        visit_id = records[0]["visit_id"]
        bad = corpusgen.js_cookie_record(visit_id, "zz=1234567890abc; Max-Age=99", ["http://[::1"]) \
            if field == "stack" else corpusgen.txn_record(visit_id, "https://a.com/", initiators=["http://[::1"])
        cpath = corpusgen.write_jsonl(records + [bad], tmp_path / "leaks.jsonl")
        argv = ["leaks", "--corpus", cpath, "--dns", corpusgen.write_jsonl(dns_lines, tmp_path / "dns.jsonl"),
                "--signatures", corpusgen.write_signatures(tmp_path / "sig.json", [corpusgen.LEAK_TRACKER_SIG]),
                "--out", tmp_path / "out"]
        assert run(argv) == 1
        assert capsys.readouterr().err == \
            f"error: {cpath}:{len(records) + 1}: {field} must be a list of URL strings\n"

    def test_defense_command(self, world, tmp_path):
        out = tmp_path / "out"
        assert run(["defense", "--corpus", world["corpus"], "--dns", world["dns"],
                    "--signatures", world["signatures"],
                    "--filters", world["filters"], "--out", out]) == 0
        with open(out / "defense_matrix.csv") as fh:
            rows = {r["tracker"]: r for r in csv.DictReader(fh)}
        assert float(rows["pixelstats"]["plain_blocked_fraction"]) == 0.0
        assert float(rows["pixelstats"]["uncloaked_blocked_fraction"]) == 1.0
        assert float(rows["pixelstats"]["sinkhole_blocked_fraction"]) == 1.0
        doc = json.loads((out / "defense_verdicts.json").read_text())
        assert doc["verdicts"]


class TestHistoryValidate:
    def test_history_command(self, world, tmp_path):
        out = tmp_path / "out"
        assert run(["history", "--months", world["months"],
                    "--signatures", world["signatures"], "--out", out]) == 0
        with open(out / "timeline.csv") as fh:
            rows = list(csv.DictReader(fh))
        months_seen = {r["month"] for r in rows}
        assert months_seen == set(corpusgen.MONTHS)
        for month in corpusgen.MONTHS:
            assert (out / f"month_{month}.json").exists()
        adoptions = json.loads((out / "adoptions.json").read_text())
        assert adoptions["adoptions"] == []  # only 3 months of data

    @staticmethod
    def _external_manifest(world, tmp_path):
        ext = {e["month"]: e["dns"]
               for e in json.loads((world["root"] / "months.json").read_text())}
        ext_path = tmp_path / "external.json"
        ext_path.write_text(json.dumps(ext))
        return ext, ext_path

    def test_validate_command(self, world, tmp_path):
        _ext, ext_path = self._external_manifest(world, tmp_path)
        out = tmp_path / "out"
        assert run(["validate", "--months", world["months"],
                    "--signatures", world["signatures"],
                    "--external-dns", ext_path, "--out", out]) == 0
        doc = json.loads((out / "validation.json").read_text())
        # external data is identical to internal, so nothing is unexplained
        assert [e for e in doc["correctness"]
                if e["reason"] == "unexplained"] == []


    def test_report_sees_changed_external_dns(self, world, tmp_path):
        ext, ext_path = self._external_manifest(world, tmp_path)
        out = tmp_path / "out"
        assert run(["validate", "--months", world["months"],
                    "--signatures", world["signatures"],
                    "--external-dns", ext_path, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "external_dns" in manifest["inputs"]
        ext.pop(corpusgen.MONTHS[-1])
        ext_path.write_text(json.dumps(ext))
        args = build_parser().parse_args(["report", "--out", str(out)])
        with pytest.raises(StaleInputs):
            args.func(args)


    @pytest.mark.parametrize("manifest,where", [
        ({"month": "2020-10"}, "must be a JSON array"),
        (["2020-10"], "entry 0: not an object"),
        ([{"month": "2020-10", "dns": "dns.jsonl"}], "entry 0: missing corpus"),
        ([{"month": "2020-10", "corpus": "c.jsonl", "dns": "d.jsonl"}, {"month": "2020-09", "corpus": "c.jsonl"}],
         "entry 1: missing dns"),
        ([{"month": "2020-10", "corpus": 5, "dns": "d.jsonl"}], "entry 0: corpus must be a string"),
    ])
    def test_malformed_month_manifest(self, world, tmp_path, capsys, manifest, where):
        path = tmp_path / "months.json"
        path.write_text(json.dumps(manifest))
        assert run(["history", "--months", path, "--signatures", world["signatures"],
                    "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("manifest,where", [
        (["dns.jsonl"], "month manifest must be a JSON object"),
        ({"2020-10": 0}, "month '2020-10': path must be a string"),
    ])
    def test_malformed_external_manifest(self, world, tmp_path, capsys, manifest, where):
        path = tmp_path / "external.json"
        path.write_text(json.dumps(manifest))
        assert run(["validate", "--months", world["months"], "--signatures", world["signatures"],
                    "--external-dns", path, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {where}")

    @staticmethod
    def _no_corpus_reads(monkeypatch):
        """Make any corpus or DNS read fail the command with exit code 2."""
        import cnametrack.cli as cli

        def refuse(path, *args):
            raise AssertionError(f"{path} read before the manifests were checked")
        monkeypatch.setattr(cli, "load_crawl_jsonl", refuse)
        monkeypatch.setattr(cli, "load_dns", refuse)

    @pytest.mark.parametrize("months,where", [
        (["2020-10", "2020-08"], "NonContiguous"),
        (["2020-10", "2020-10"], "NonContiguous"),
        (["2020-10", "bad"], "entry 1: month 'bad' is not YYYY-MM"),
        (["2020-13", "2020-12"], "entry 0: month '2020-13' is not YYYY-MM"),
        (["2020-1", "2020-09"], "entry 0: month '2020-1' is not YYYY-MM"),
    ])
    @pytest.mark.parametrize("command", ["history", "validate"])
    def test_bad_month_manifest_fails_before_any_corpus_read(
            self, world, tmp_path, capsys, monkeypatch, command, months, where):
        manifest = [{"month": m, "corpus": world["corpus"], "dns": world["dns"]} for m in months]
        path = tmp_path / "months.json"
        path.write_text(json.dumps(manifest))
        ext_path = tmp_path / "external.json"
        ext_path.write_text(json.dumps({"2020-10": world["dns"]}))
        self._no_corpus_reads(monkeypatch)
        argv = [command, "--months", path, "--signatures", world["signatures"], "--out", tmp_path / "out"]
        if command == "validate":
            argv += ["--external-dns", ext_path]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if where == "NonContiguous":
            assert f"{months[0]} -> {months[1]}" in err
        else:
            assert err.startswith(f"error: {path}: {where}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("months,fault", [
        (["2020-10", "2020-08"], "months 2020-10 -> 2020-08 are not contiguous (missing 2020-09)"),
        (["2020-08", "2020-10"], "months 2020-10 -> 2020-08 are not contiguous (missing 2020-09)"),
        (["2021-02", "2020-11"],
         "months 2021-02 -> 2020-11 are not contiguous (missing 2020-12 to 2021-01)"),
        (["2020-10", "2020-09", "2020-09"],
         "months 2020-09 -> 2020-09 are not contiguous (duplicate 2020-09)"),
    ])
    @pytest.mark.parametrize("command", ["history", "validate"])
    def test_non_contiguous_months_name_manifest_and_fault(
            self, world, tmp_path, capsys, monkeypatch, command, months, fault):
        manifest = [{"month": m, "corpus": world["corpus"], "dns": world["dns"]} for m in months]
        path = tmp_path / "months.json"
        path.write_text(json.dumps(manifest))
        ext_path = tmp_path / "external.json"
        ext_path.write_text(json.dumps({"2020-10": world["dns"]}))
        self._no_corpus_reads(monkeypatch)
        argv = [command, "--months", path, "--signatures", world["signatures"], "--out", tmp_path / "out"]
        if command == "validate":
            argv += ["--external-dns", ext_path]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {fault}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["x", "2020-13", "2020-1", "2020-10 ", "20201"])
    def test_external_month_must_be_yyyy_mm(self, world, tmp_path, capsys, monkeypatch, key):
        """A key like "x" sorted after every real month, so it was read as a later month."""
        path = tmp_path / "external.json"
        path.write_text(json.dumps({"2020-10": world["dns"], key: world["dns"]}))
        self._no_corpus_reads(monkeypatch)
        assert run(["validate", "--months", world["months"], "--signatures", world["signatures"],
                    "--external-dns", path, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: month {key!r}: not YYYY-MM")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["corpus", "dns"])
    @pytest.mark.parametrize("command", ["history", "validate"])
    def test_malformed_month_file_mid_stream(self, world, tmp_path, capsys, command, bad):
        """Months are read one at a time: a broken file in the middle month
        still stops the run with a located error, before any output."""
        manifest = json.loads((world["root"] / "months.json").read_text())
        middle = next(e for e in manifest if e["month"] == corpusgen.MONTHS[1])
        broken = tmp_path / f"broken-{bad}.jsonl"
        broken.write_text(open(middle[bad]).read() + "{not json\n")
        middle[bad] = str(broken)
        path = tmp_path / "months.json"
        path.write_text(json.dumps(manifest))
        _ext, ext_path = self._external_manifest(world, tmp_path)
        out = tmp_path / "out"
        argv = [command, "--months", path, "--signatures", world["signatures"], "--out", out]
        if command == "validate":
            argv += ["--external-dns", ext_path]
        assert run(argv) == 1
        err = capsys.readouterr().err
        lines = len(open(broken).read().splitlines())
        assert err.startswith(f"error: {broken}:{lines}: bad JSON")
        assert "Traceback" not in err
        assert not out.exists()

class TestFeaturesReport:
    def test_features_command(self, world, tmp_path):
        out = tmp_path / "out"
        assert run(["features", "--corpus", world["corpus"], "--dns",
                    world["dns"], "--min-sites", 1, "--out", out]) == 0
        doc = json.loads((out / "features.json").read_text())
        by_target = {c["target"]: c for c in doc["candidates"]}
        assert by_target["fastcdn.net"]["flag"] == "likely-cdn"
        assert by_target["eulertrack.net"]["flag"] == "likely-tracker"

    @pytest.mark.parametrize("url", ["http://localhost:8080/x.js", "https://github.io/x.js"])
    def test_request_to_host_without_registrable_domain(self, world, tmp_path, capsys, url):
        """Such a request is cross-site to the page; it used to abort the run."""
        corpus = tmp_path / "corpus.jsonl"
        corpusgen.write_jsonl([corpusgen.visit_record("v1", "https://www.shop00.net/"),
                               corpusgen.txn_record("v1", url, content_type="text/javascript")],
                              corpus)
        corpus.write_text(open(world["corpus"]).read() + corpus.read_text())
        out = tmp_path / "out"
        assert run(["features", "--corpus", corpus, "--dns", world["dns"],
                    "--min-sites", 1, "--out", out]) == 0
        assert run(["detect", "--corpus", corpus, "--dns", world["dns"],
                    "--signatures", world["signatures"], "--out", out]) == 0
        assert run(["report", "--corpus", corpus, "--filters", world["filters"], "--out", out]) == 0
        assert "error" not in capsys.readouterr().err
        assert json.loads((out / "features.json").read_text())["candidates"]

    def test_report_command(self, world, tmp_path):
        out = tmp_path / "out"
        assert run(["detect", "--corpus", world["corpus"], "--dns", world["dns"],
                    "--signatures", world["signatures"], "--out", out]) == 0
        assert run(["report", "--ranking", world["ranking"],
                    "--corpus", world["corpus"], "--filters", world["filters"],
                    "--out", out]) == 0
        with open(out / "rank_bins.csv") as fh:
            bins = list(csv.DictReader(fh))
        assert len(bins) == 2  # ranks reach past 10,000
        # bin 1 holds exactly the 12 planted publishers, all same-site tracked
        assert int(bins[0]["sites"]) == corpusgen.N_PLANTED
        assert float(bins[0]["same_site_pct"]) == 100.0
        assert float(bins[1]["same_site_pct"]) == 0.0
        cooc = json.loads((out / "cooccurrence.json").read_text())
        assert "third_party_cooccurrence_fraction" in cooc

    def test_report_detects_stale_inputs(self, world, tmp_path):
        out = tmp_path / "out"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(open(world["corpus"], "rb").read())
        assert run(["detect", "--corpus", corpus, "--dns", world["dns"],
                    "--signatures", world["signatures"], "--out", out]) == 0
        with open(corpus, "a") as fh:
            fh.write("\n")
        assert run(["report", "--ranking", world["ranking"],
                    "--out", out]) == 1

    def test_report_rejects_malformed_publishers(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "publishers.json").write_text(json.dumps(
            {"detections": [{"publisher": "a.com"}]}))
        assert run(["report", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "publishers.json" in err and "detection 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("manifest,message", [
        ("{", "bad JSON: "),
        ("[]", "expected an object with inputs and input_paths objects"),
        ('{"inputs": 5}', "expected an object with inputs and input_paths objects"),
        ('{"inputs": {"corpus": "x"}, "input_paths": []}',
         "expected an object with inputs and input_paths objects"),
        ('{"inputs": {"corpus": "x"}, "input_paths": {"corpus": 5}}',
         "expected an object with inputs and input_paths objects"),
    ], ids=["truncated", "array", "inputs-not-object", "paths-not-object", "path-not-string"])
    def test_report_rejects_corrupt_manifest(self, tmp_path, capsys, manifest, message):
        out = tmp_path / "out"
        out.mkdir()
        (out / "publishers.json").write_text(json.dumps({"detections": []}))
        (out / "manifest.json").write_text(manifest)
        assert run(["report", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'manifest.json'}: {message}")
        assert err.count("\n") == 1


UNDECODABLE = b"\xff\xfe"


@pytest.mark.parametrize("flag", ["corpus", "har", "psl", "dns", "signatures", "ranking",
                                  "months", "external-dns", "publishers.json", "manifest.json"])
def test_undecodable_input_exits_1_naming_the_file(world, tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(UNDECODABLE)
    out = tmp_path / "out"
    out.mkdir()
    (out / "publishers.json").write_text(json.dumps({"detections": []}))
    inputs = {"corpus": world["corpus"], "dns": world["dns"], "signatures": world["signatures"],
              "months": world["months"]}
    if flag in ("publishers.json", "manifest.json"):
        (out / flag).write_bytes(UNDECODABLE)
        bad, argv = out / flag, ["report"]
    elif flag == "ranking":
        argv = ["report", "--ranking", bad]
    elif flag == "months":
        argv = ["history", "--months", bad, "--signatures", inputs["signatures"]]
    elif flag == "external-dns":
        argv = ["validate", "--external-dns", bad, "--months", inputs["months"],
                "--signatures", inputs["signatures"]]
    else:
        inputs.pop("months")
        if flag == "har":
            inputs.pop("corpus")
        inputs[flag] = bad
        argv = ["detect", *(a for k, v in inputs.items() for a in (f"--{k}", v))]
    assert run([*argv, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text: invalid start byte\n"


@pytest.mark.parametrize("har,message", [
    ({"log": {"pages": [5], "entries": []}}, "page 0: not an object"),
    ({"log": {"entries": 5}}, "log.entries must be a list"),
    ({"log": {"entries": [{"request": {"url": "https://a.com/", "method": 5}}]}},
     "entry 0: request.method must be a string"),
], ids=["page-not-object", "entries-not-list", "entry-method"])
def test_malformed_har_structure_exits_1(world, tmp_path, capsys, har, message):
    path = tmp_path / "capture.har"
    path.write_text(json.dumps(har))
    assert run(["detect", "--har", path, "--dns", world["dns"], "--signatures", world["signatures"],
                "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("flag", ["corpus", "dns", "signatures", "months"])
@pytest.mark.parametrize("deep", ["[" * 100_000, '{"a":' * 100_000, " " + "[" * 100_000],
                         ids=["array", "object", "past-the-scanner"])
def test_deeply_nested_json_exits_1_naming_the_place(world, tmp_path, capsys, flag, deep):
    """Nesting too deep to decode is bad JSON, on the C scanner's path and
    on ``json.loads``'s (a leading space), not a RecursionError traceback."""
    bad = tmp_path / "deep.json"
    inputs = {"corpus": world["corpus"], "dns": world["dns"], "signatures": world["signatures"]}
    if flag in ("corpus", "dns"):  # a good first line, then the deep one
        first = Path(inputs[flag]).read_text(encoding="utf-8").splitlines()[0]
        bad.write_text(f"{first}\n{deep}\n")
        where = f"{bad}:2"
    else:
        bad.write_text(deep)
        where = str(bad)
    if flag == "months":
        argv = ["history", "--months", bad, "--signatures", inputs["signatures"]]
    else:
        inputs[flag] = bad
        argv = ["detect", *(a for k, v in inputs.items() for a in (f"--{k}", v))]
    assert run([*argv, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: bad JSON: maximum recursion depth exceeded while decoding a JSON ")
    assert err.count("\n") == 1


def test_integer_past_the_digit_limit_exits_1_naming_the_line(world, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(corpusgen.visit_record("v1", "https://www.shop00.net/")) + "\n"
                      + '{"record_type": "transaction", "response_size": ' + "1" * 5000 + "}\n")
    assert run(["detect", "--corpus", corpus, "--dns", world["dns"], "--signatures", world["signatures"],
                "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}:2: bad JSON: Exceeds the limit (4300 digits) for integer string")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["detect", "--max-depth", "0"], "--max-depth must be at least 1, not 0"),
    (["history", "--max-depth", "-3"], "--max-depth must be at least 1, not -3"),
    (["report", "--rank-bins", "0"], "--rank-bins must be at least 1, not 0"),
    (["report", "--rank-bins", "-1"], "--rank-bins must be at least 1, not -1"),
], ids=["max-depth-zero", "max-depth-negative", "rank-bins-zero", "rank-bins-negative"])
def test_count_flag_below_one_exits_1(world, tmp_path, capsys, argv, message):
    """Checked before any input is read: no traceback, and no output."""
    out = tmp_path / "out"
    assert run(["detect", "--corpus", world["corpus"], "--dns", world["dns"],
                "--signatures", world["signatures"], "--out", out]) == 0
    capsys.readouterr()
    inputs = {"detect": ["--corpus", world["corpus"], "--dns", world["dns"], "--signatures", world["signatures"]],
              "history": ["--months", world["months"], "--signatures", world["signatures"]],
              "report": ["--corpus", world["corpus"], "--ranking", world["ranking"]]}
    assert run([*argv, *inputs[argv[0]], "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "rank_bins.csv").exists()


def two_hop_world(root):
    """One month of one tracking request, sent to an address inside the
    tracker's declared range from a host two CNAME hops away from it; the
    external DNS of the month holds the same chain."""
    month = "2020-10"
    corpus = corpusgen.write_jsonl([
        corpusgen.visit_record("v1", "https://www.shop.com/", month=month),
        corpusgen.txn_record("v1", "https://m.shop.com/p.gif", remote_ip="203.0.113.5")],
        root / "corpus.jsonl")
    dns = corpusgen.write_jsonl([corpusgen.dns_line("m.shop.com", [
        ("m.shop.com", "CNAME", "a.cdn.org"), ("a.cdn.org", "CNAME", "x.trk.net"),
        ("x.trk.net", "A", "198.51.100.1")], month)], root / "dns.jsonl")
    sigs = corpusgen.write_signatures(root / "sigs.json", [
        {"tracker_id": "trk", "cname_suffixes": ["trk.net"], "cidr_ranges": ["203.0.113.0/24"],
         "path_patterns": ["/*"]}])
    (root / "filters.txt").write_text("||trk.net^\n")
    (root / "months.json").write_text(json.dumps([{"month": month, "corpus": str(corpus),
                                                   "dns": str(dns)}]))
    (root / "external.json").write_text(json.dumps({month: str(dns)}))
    detect = ["--corpus", corpus, "--dns", dns, "--signatures", sigs]
    months = ["--months", root / "months.json", "--signatures", sigs]
    return {"detect": detect, "defense": [*detect, "--filters", root / "filters.txt"],
            "history": months, "validate": [*months, "--external-dns", root / "external.json"]}


def test_max_depth_reaches_every_chain_stage(tmp_path):
    """At --max-depth 1 the chain stops at a.cdn.org: the request is still
    detected by its address, but no longer through the CNAME, nothing
    uncloaks or sinks it, the pool gains no address from the chain, and the
    external data no longer backs the detection."""
    world = two_hop_world(tmp_path)

    def outputs(command, *depth):
        out = tmp_path / f"{command}{''.join(depth)}"
        assert run([command, *world[command], *depth, "--out", out]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["max_depth"] == \
            (int(depth[1]) if depth else 10)
        return out

    for depth, mechanism in (((), "cname"), (("--max-depth", "1"), "direct-a-record")):
        detections = json.loads((outputs("detect", *depth) / "publishers.json").read_text())
        assert [d["mechanism"] for d in detections["detections"]] == [mechanism]
        verdicts = json.loads((outputs("defense", *depth) / "defense_verdicts.json").read_text())
        deep = mechanism == "cname"
        assert [(v["plain"], v["uncloaked"], v["sinkhole"]) for v in verdicts["verdicts"]] == \
            [(False, deep, deep)]
        month = json.loads((outputs("history", *depth) / "month_2020-10.json").read_text())
        assert [d["mechanism"] for d in month["detections"]] == [mechanism]
        assert month["pool"] == {"trk": {"singles": int(deep), "ranges": 1}}
        report = json.loads((outputs("validate", *depth) / "validation.json").read_text())
        assert [e["reason"] for e in report["correctness"]] == ([] if deep else ["unexplained"])


def one_request_world(root, url, answers, sigs, remote_ip=None):
    """One month (2020-01) of one request from a chrome visit to
    www.shop.com, the DNS answers of its host, ``sigs`` and a ``||trk.net^``
    filter list, as the flags of each command that reads them."""
    month = "2020-01"
    corpus = corpusgen.write_jsonl([
        corpusgen.visit_record("v1", "https://www.shop.com/", month=month),
        corpusgen.txn_record("v1", url, remote_ip=remote_ip)], root / "corpus.jsonl")
    dns = corpusgen.write_jsonl([corpusgen.dns_line("m.shop.com", answers, month)], root / "dns.jsonl")
    sigs = corpusgen.write_signatures(root / "sigs.json", sigs)
    (root / "filters.txt").write_text("||trk.net^\n")
    (root / "months.json").write_text(json.dumps([{"month": month, "corpus": str(corpus),
                                                   "dns": str(dns)}]))
    (root / "external.json").write_text(json.dumps({month: str(dns)}))
    features = ["--corpus", corpus, "--dns", dns]
    detect = [*features, "--signatures", sigs]
    months = ["--months", root / "months.json", "--signatures", sigs]
    return {"detect": detect, "leaks": detect, "defense": [*detect, "--filters", root / "filters.txt"],
            "features": features, "history": months,
            "validate": [*months, "--external-dns", root / "external.json"]}


def test_signatures_sharing_a_tracker_id_share_their_ranges(tmp_path):
    """The address is in the first signature's range, the path matches only
    the second's pattern: both are tracker "trk", so both commands detect
    the request, and the month's pool holds both ranges."""
    world = one_request_world(tmp_path, "https://m.shop.com/ea/x", [("m.shop.com", "A", "203.0.113.5")], [
        {"tracker_id": "trk", "cidr_ranges": ["203.0.113.0/24"], "path_patterns": ["/pixel/*"]},
        {"tracker_id": "trk", "cidr_ranges": ["198.51.100.0/24"], "path_patterns": ["/ea/*"]}])
    assert run(["detect", *world["detect"], "--out", tmp_path / "detect"]) == 0
    assert (tmp_path / "detect" / "summary.csv").read_text().splitlines()[1:] == \
        ["shop.com,trk,same-site,direct-a-record,1"]
    assert run(["history", *world["history"], "--out", tmp_path / "history"]) == 0
    assert (tmp_path / "history" / "timeline.csv").read_text().splitlines()[1:] == ["2020-01,trk,1,0"]
    month = json.loads((tmp_path / "history" / "month_2020-01.json").read_text())
    assert [(d["publisher"], d["mechanism"]) for d in month["detections"]] == \
        [("shop.com", "direct-a-record")]
    assert month["pool"] == {"trk": {"singles": 0, "ranges": 2}}


@pytest.mark.parametrize("port", ["99999", "abc"])
def test_defense_keeps_a_malformed_port_when_uncloaking(tmp_path, port):
    world = one_request_world(tmp_path, f"https://m.shop.com:{port}/ea/x",
                              [("m.shop.com", "CNAME", "c.trk.net")],
                              [{"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/ea/*"]}])
    assert run(["defense", *world["defense"], "--out", tmp_path / "out"]) == 0
    verdicts = json.loads((tmp_path / "out" / "defense_verdicts.json").read_text())["verdicts"]
    assert len(verdicts) == 1 and verdicts[0]["uncloaked"] is True


@pytest.mark.parametrize("label,detected", [("chrome", True), ("safari", False)])
def test_ua_label_filters_every_month(tmp_path, label, detected):
    """--ua-label keeps only the visits of its user agent in each month of
    history and validate, as it does for detect."""
    world = one_request_world(tmp_path, "https://m.shop.com/ea/x", [("m.shop.com", "CNAME", "c.trk.net")],
                              [{"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/ea/*"]}])
    assert run(["history", *world["history"], "--ua-label", label, "--out", tmp_path / "history"]) == 0
    assert (tmp_path / "history" / "timeline.csv").read_text().splitlines()[1:] == \
        (["2020-01,trk,1,0"] if detected else [])
    assert run(["validate", *world["validate"], "--ua-label", label, "--out", tmp_path / "validate"]) == 0
    report = json.loads((tmp_path / "validate" / "validation.json").read_text())
    assert report["completeness"]["absent-from-corpus"] == \
        ([] if detected else [{"month": "2020-01", "host": "m.shop.com", "tracker": "trk"}])


@pytest.mark.parametrize("command", ["detect", "leaks", "defense", "history", "validate", "features"])
def test_bad_cidr_exits_1_naming_the_signature(tmp_path, capsys, command):
    """Every command that loads --signatures rejects a range that does not
    parse, naming the file and the signature; features does not take the flag."""
    world = one_request_world(tmp_path, "https://m.shop.com/ea/x", [("m.shop.com", "A", "203.0.113.5")], [
        {"tracker_id": "trk", "cidr_ranges": ["203.0.113.0/33"], "path_patterns": ["/ea/*"]}])
    capsys.readouterr()
    if command == "features":
        with pytest.raises(SystemExit) as exc:
            run([command, *world[command], "--signatures", tmp_path / "sigs.json", "--out", tmp_path / "out"])
        assert exc.value.code == 2 and "unrecognized arguments: --signatures" in capsys.readouterr().err
        return
    code = run([command, *world[command], "--out", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'sigs.json'}: signature 0: "
                                       "'203.0.113.0/33' does not appear to be an IPv4 or IPv6 network\n")


@pytest.mark.parametrize("value,message", [
    ("[" * 500 + "]" * 500, "record_type must be a string"),
    (json.dumps("x" * 10_000), "unknown record_type '" + "x" * 40 + "'..."),
    ('"mystery"', "unknown record_type 'mystery'")], ids=["nested-list", "long-string", "string"])
def test_record_type_error_line_is_bounded(world, tmp_path, capsys, value, message):
    """The error line echoes at most 40 characters of a record_type string,
    and nothing of a value that is not a string."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(f'{{"record_type": {value}}}\n')
    capsys.readouterr()
    assert run(["detect", "--corpus", corpus, "--dns", world["dns"], "--signatures", world["signatures"],
                "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {corpus}:1: {message}\n"


@pytest.mark.parametrize("sig,message", [
    ({"tracker_id": "t" * 10_000, "cname_suffixes": ["trk.net"], "path_patterns": []},
     f"'{'t' * 40}'...: path_patterns must be non-empty"),
    ({"tracker_id": "t" * 10_000, "path_patterns": ["/ea/*"]},
     f"'{'t' * 40}'...: needs cname_suffixes or cidr_ranges"),
    ({"tracker_id": "trk", "cidr_ranges": ["1" * 10_000], "path_patterns": ["/ea/*"]},
     f"'{'1' * 40}'... does not appear to be an IPv4 or IPv6 network")],
    ids=["empty-path-patterns", "no-suffix-or-range", "bad-range"])
def test_signature_error_line_is_bounded(tmp_path, capsys, sig, message):
    """A signature error shows at most 40 characters of the offending value."""
    world = one_request_world(tmp_path, "https://m.shop.com/ea/x", [("m.shop.com", "CNAME", "c.trk.net")], [sig])
    capsys.readouterr()
    assert run(["detect", *world["detect"], "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'sigs.json'}: signature 0: {message}\n"
    assert len(err.encode()) - len(str(tmp_path)) < 200


def cooccurrence_world(root):
    """One page of www.shop.com that loads a CNAME-cloaked tracker request
    and a blocked cross-site one, as capture JSONL and as HAR, then detect
    run into ``root / "out"``: the flags of each corpus and the filters."""
    urls = ["https://m.shop.com/ea/x", "https://px.trk.net/p.gif"]
    world = one_request_world(root, urls[0], [("m.shop.com", "CNAME", "c.trk.net")],
                              [{"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/ea/*"]}])
    with open(root / "corpus.jsonl", "a") as fh:
        fh.write(json.dumps(corpusgen.txn_record("v1", urls[1])) + "\n")
    (root / "capture.har").write_text(json.dumps({"log": {
        "pages": [{"id": "p1", "title": "https://www.shop.com/"}],
        "entries": [{"pageref": "p1", "startedDateTime": f"2020-01-01T00:00:0{i}Z",
                     "request": {"url": url, "method": "GET"},
                     "response": {"status": 200, "content": {"size": 250, "mimeType": "image/gif"}}}
                    for i, url in enumerate(urls)]}}))
    assert run(["detect", *world["detect"], "--out", root / "out"]) == 0
    return {"corpus": ["--corpus", root / "corpus.jsonl"], "har": ["--har", root / "capture.har"],
            "filters": ["--filters", root / "filters.txt"]}


@pytest.mark.parametrize("corpus", ["corpus", "har"])
def test_report_cooccurrence_reads_either_corpus(tmp_path, corpus):
    flags = cooccurrence_world(tmp_path)
    assert run(["report", *flags[corpus], *flags["filters"], "--out", tmp_path / "out"]) == 0
    assert json.loads((tmp_path / "out" / "cooccurrence.json").read_text()) == \
        {"schema_version": 1, "third_party_cooccurrence_fraction": 1.0}


@pytest.mark.parametrize("given,missing", [
    ("corpus", "--filters"), ("har", "--filters"), ("filters", "--corpus (or --har)")],
    ids=["corpus-alone", "har-alone", "filters-alone"])
def test_report_needs_a_corpus_and_filters_together(tmp_path, capsys, given, missing):
    """Half of the pair exits 1 naming the other half, before publishers.json is read."""
    flags = cooccurrence_world(tmp_path)
    (tmp_path / "out" / "publishers.json").write_text("not JSON")
    capsys.readouterr()
    assert run(["report", *flags[given], "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: missing required flag {missing}\n"
    assert not (tmp_path / "out" / "cooccurrence.json").exists()


# The flags each command takes, -h aside: its row of the command table.
TAKES = {
    "detect": {"dns", "signatures", "corpus", "har", "max-depth", "threads"},
    "leaks": {"dns", "signatures", "corpus", "har", "max-depth", "threads"},
    "defense": {"filters", "dns", "signatures", "corpus", "har", "max-depth", "threads"},
    "features": {"dns", "corpus", "har", "min-sites", "max-depth", "threads"},
    "history": {"signatures", "months", "max-depth", "threads"},
    "validate": {"signatures", "external-dns", "months", "max-depth", "threads"},
    "report": {"corpus", "har", "filters", "ranking", "rank-bins"},
}
SHARED = {"psl", "ua-label", "out"}
ALL_FLAGS = set().union(SHARED, *TAKES.values())


def test_each_command_takes_exactly_its_flags():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    taken = {name: {opt.removeprefix("--") for action in p._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")}
             for name, p in sub.choices.items()}
    assert taken == {name: flags | SHARED for name, flags in TAKES.items()}
    assert sum(map(len, taken.values())) == 60


def _flag_value(flag, world):
    if flag in ("min-sites", "max-depth", "rank-bins", "threads"):
        return 1
    return "chrome" if flag == "ua-label" else world["detect"][1]  # an existing file


@pytest.mark.parametrize("command,flag", [(c, f) for c in TAKES for f in sorted(ALL_FLAGS - TAKES[c] - SHARED)])
def test_flag_the_command_does_not_take_is_a_usage_error(tmp_path, capsys, command, flag):
    """Rejected before any input is read: exit 2 naming the flag, and --out stays empty."""
    world = one_request_world(tmp_path, "https://m.shop.com/ea/x", [("m.shop.com", "CNAME", "c.trk.net")],
                              [{"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/ea/*"]}])
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([command, *world.get(command, []), f"--{flag}", _flag_value(flag, world), "--out", out])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command,flag", [(c, f) for c in TAKES for f in sorted(TAKES[c] | SHARED)])
def test_flags_are_matched_only_in_full(tmp_path, capsys, command, flag):
    """Each flag of a command parses spelled in full; a unique prefix of it is
    a usage error (exit 2) before any input is read, so --out stays empty."""
    world = one_request_world(tmp_path, "https://m.shop.com/ea/x", [("m.shop.com", "CNAME", "c.trk.net")],
                              [{"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/ea/*"]}])
    value = str(_flag_value(flag, world))
    args = build_parser().parse_args([command, f"--{flag}", value])
    assert str(getattr(args, flag.replace("-", "_"))) == value
    prefix = flag[:-1]
    assert not any(f.startswith(prefix) for f in TAKES[command] | SHARED if f != flag)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([command, *world.get(command, []), f"--{prefix}", value, "--out", out])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{prefix} " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_history_with_a_corpus_flag_writes_nothing(tmp_path):
    """history reads corpora only through --months: a --corpus (even a
    missing one) is a usage error, not a failure after the months ran."""
    world = one_request_world(tmp_path, "https://m.shop.com/ea/x", [("m.shop.com", "CNAME", "c.trk.net")],
                              [{"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/ea/*"]}])
    with pytest.raises(SystemExit) as exc:
        run(["history", *world["history"], "--corpus", tmp_path / "missing.jsonl", "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_corpus_with_har_is_a_usage_error(tmp_path, capsys):
    flags = cooccurrence_world(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["detect", *flags["corpus"], *flags["har"], "--dns", tmp_path / "dns.jsonl",
             "--signatures", tmp_path / "sigs.json", "--out", tmp_path / "out2"])
    assert exc.value.code == 2
    assert "argument --har: not allowed with argument --corpus" in capsys.readouterr().err
    assert not (tmp_path / "out2").exists()


def test_manifest_records_only_the_flags_the_command_took(tmp_path):
    """inputs holds the input files given; config holds the command's settings only."""
    world = one_request_world(tmp_path, "https://m.shop.com/ea/x", [("m.shop.com", "CNAME", "c.trk.net")],
                              [{"tracker_id": "trk", "cname_suffixes": ["trk.net"], "path_patterns": ["/ea/*"]}])
    for command, flags in world.items():
        out = tmp_path / command
        assert run([command, *flags, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {str(f)[2:].replace("-", "_") for f in flags[::2]}, command
        assert set(manifest["config"]) == \
            ({"min_sites", "max_depth", "ua_label"} if command == "features" else {"max_depth", "ua_label"}), command


def test_missing_required_flag_is_checked_before_any_input_is_read(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not JSON")
    assert run(["history", "--signatures", bad, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == "error: missing required flag --months\n"
    assert not (tmp_path / "out").exists()
