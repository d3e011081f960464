"""Memory budget of a loaded corpus: traced bytes per transaction.

``load_crawl_jsonl`` keeps only the cookies a transaction's headers derive,
shares every repeated cookie pair, Cookie header and Set-Cookie record within
a load and gives a transaction without cookies no containers at all.  The traced allocation of a load depends only on the input
and the Python version, so each budget below is this loader's measured value
on CPython 3.11 plus 15%: a loader that stores each record's own copies again
goes over it.  Other versions lay objects out differently; there the budgets
are skipped.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

import corpusgen
from cnametrack.ingest import load_crawl_jsonl
from cnametrack.model import _authority

VISITS, TXNS_PER_VISIT, SITES = 300, 10, 30
PERSIST = "Expires=Wed, 01 Jan 2031 00:00:00 GMT"
MEASURED = {"cookies": 397, "no-headers": 375}  # bytes per transaction, CPython 3.11
BUDGET = {name: int(value * 1.15) for name, value in MEASURED.items()}


def corpus_records(cookies: bool) -> list[dict]:
    """VISITS visits of TXNS_PER_VISIT requests over SITES sites.  With
    ``cookies``, each page answers with the site's Set-Cookie headers and
    every later request of the visit carries the site's Cookie header, as a
    crawl's first-party requests do."""
    records = []
    for v in range(VISITS):
        s = v % SITES
        site = f"site{s:02d}.com"
        vid = f"v{v}"
        records.append(corpusgen.visit_record(vid, f"https://www.{site}/"))
        for t in range(TXNS_PER_VISIT):
            kw = {}
            if cookies and t == 0:
                kw["set_cookie"] = [f"_ga=GA1.2.{s:08d}; Domain={site}; Path=/; {PERSIST}",
                                    f"sid=s{s:06d}; Path=/; Secure; SameSite=Lax"]
            elif cookies:
                kw["cookie_header"] = f"_ga=GA1.2.{s:08d}; sid=s{s:06d}; consent=yes"
            host = f"www.{site}" if t % 3 else f"metrics.{site}"
            records.append(corpusgen.txn_record(
                vid, f"https://{host}/p{t}/x.js?v={v}", size=1000 + t,
                remote_ip=f"192.0.2.{s}", **kw))
    return records


def traced_bytes_per_transaction(path) -> float:
    _authority.cache_clear()  # a cold load: the URL prefix memo starts empty
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        visits = load_crawl_jsonl(path)
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    count = sum(len(v.transactions) for v in visits)
    assert count == VISITS * TXNS_PER_VISIT
    return used / count


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="budgets measured on CPython 3.11")
@pytest.mark.parametrize("name", ["cookies", "no-headers"])
def test_traced_bytes_per_transaction_within_budget(tmp_path, name):
    path = corpusgen.write_jsonl(corpus_records(name == "cookies"), tmp_path / "c.jsonl")
    per_txn = traced_bytes_per_transaction(path)
    assert per_txn <= BUDGET[name], f"{per_txn:.0f} B per transaction, budget {BUDGET[name]} B"
