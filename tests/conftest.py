import pytest

import corpusgen
from cnametrack.detect import detect_publishers
from cnametrack.dnsgraph import DnsRecordStore
from cnametrack.ingest import load_crawl_jsonl
from cnametrack.model import TrackerSignature
from cnametrack.sitectx import PublicSuffixTable


@pytest.fixture(scope="session")
def psl() -> PublicSuffixTable:
    return PublicSuffixTable.bundled()


@pytest.fixture(scope="module")
def leak_setup(tmp_path_factory):
    """The planted leak world: (corpus, dns, sig, detections, expected, psl)."""
    records, dns_lines, expected = corpusgen.leak_world()
    path = corpusgen.write_jsonl(records, tmp_path_factory.mktemp("leaks") / "c.jsonl")
    psl = PublicSuffixTable.bundled()
    corpus = load_crawl_jsonl(path, psl)
    dns = DnsRecordStore()
    for line in dns_lines:
        for ans in line["answers"]:
            dns.add(ans["name"], ans["type"], ans["answer"], line.get("month"))
    sig = TrackerSignature(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in corpusgen.LEAK_TRACKER_SIG.items()
                              if k not in ("id_markers", "notes")})
    detections = detect_publishers(corpus, dns, [sig], None, psl)
    return corpus, dns, sig, detections, expected, psl
