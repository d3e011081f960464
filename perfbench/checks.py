"""Output checks: each workload's reports against the generator's planted
ground truth.  A check returns a list of problems; empty means correct.

The blocklist reference matcher reads the generated rule specs, not the
filter-list text, and knows two defects of the current engine (ROADMAP
item 3): ``$script``/``$image`` are never checked, and ``domain=`` is
compared with the page's eTLD+1 instead of its hostname.  A verdict that a
rule carrying one of those options could decide is not asserted; the rules
stay in the list so the engine still pays for them.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from gen import RANK_BIN, CrawlWorld, RuleSpec, Workload, host_of, site_of

ADOPTION_WINDOW = 6


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _detections(doc) -> set[tuple[str, str, str, str]]:
    return {(d["publisher"], d["tracker"], d["context"], d["mechanism"]) for d in doc["detections"]}


def _diff(label: str, got: set, want: set) -> list[str]:
    if got == want:
        return []
    missing, extra = sorted(want - got)[:3], sorted(got - want)[:3]
    return [f"{label}: {len(want - got)} missing {missing}, {len(got - want)} unexpected {extra}"]


def check_crawl_detect(w: Workload, d: Path) -> list[str]:
    problems = _diff("detections", _detections(_load(d / "out/publishers.json")), w.truth["detections"])
    got = {c["target"]: c["sites"] for c in _load(d / "feat/features.json")["candidates"]}
    want = {t: len(s) for t, s in w.truth["candidates"].items()}
    if got != want:
        problems.append(f"features: candidate site counts {got} != planted {want}")
    return problems


def check_leak_audit(w: Workload, d: Path) -> list[str]:
    with open(d / "out/leaks.jsonl", encoding="utf-8") as fh:
        findings = [json.loads(line) for line in fh]
    got = {(f["site"], f["cookie_name"], f["channel"]) for f in findings}
    problems = _diff("leak findings", got, w.truth["findings"])
    if len(findings) != w.truth["finding_count"]:
        problems.append(f"leak findings: {len(findings)} rows, planted {w.truth['finding_count']}")
    transport = len(_csv_rows(d / "out/transport.csv")) - 1
    if transport != w.truth["transport_count"]:
        problems.append(f"transport: {transport} rows, planted {w.truth['transport_count']}")
    return problems


# --- blocklist-eval -------------------------------------------------------------------

class Reference:
    """Three-valued Adblock-subset matcher over the generated rules:
    True / False when the verdict is certain, None when a rule with a
    defective option ($script, $image, domain=) could decide it."""

    def __init__(self, rules: list[RuleSpec]):
        self.by_domain: dict[str, list[RuleSpec]] = {}
        self.patterns: list[RuleSpec] = []
        for r in rules:
            if r.inert:
                continue
            if r.kind == "domain":
                self.by_domain.setdefault(r.text, []).append(r)
            else:
                self.patterns.append(r)
        self.sinkhole = {r.text for r in rules
                         if r.kind == "domain" and not r.options and not r.exception and not r.inert}

    @staticmethod
    def _suffixes(host: str):
        labels = host.split(".")
        return (".".join(labels[i:]) for i in range(len(labels)))

    @staticmethod
    def _pattern_hit(r: RuleSpec, url: str) -> bool:
        if r.kind == "literal":
            return r.text in url
        head, tail = r.text.split("*")
        i = url.find(head)
        return i >= 0 and url.find(tail, i + len(head)) >= 0

    @staticmethod
    def _options(r: RuleSpec, cross: bool):
        unknown = False
        for opt in r.options:
            if opt == "third-party" and not cross:
                return False
            if opt == "first-party" and cross:
                return False
            if opt not in ("third-party", "first-party"):
                unknown = True
        return None if unknown else True

    def plain(self, url: str, cross: bool):
        host = host_of(url)
        hits = [r for s in self._suffixes(host) for r in self.by_domain.get(s, ())]
        hits += [r for r in self.patterns if self._pattern_hit(r, url)]
        block = exc = False
        for r in hits:
            v = self._options(r, cross)
            if r.exception:
                exc = True if v else (exc if v is False else (exc or None))
            else:
                block = True if v else (block if v is False else (block or None))
        if block is False or exc is True:
            return False
        if block is True and exc is False:
            return True
        return None

    def sinkholed(self, host: str, hops: list[str]) -> bool:
        return any(s in self.sinkhole for h in [host, *hops] for s in self._suffixes(h))


def _expected_cooccurrence(world: CrawlWorld, ref: Reference, publishers: set[str]) -> tuple[int, int]:
    """(sites certainly loading a blocked third party, sites possibly)."""
    status: dict[str, object] = {}
    for site, urls in world.visits.values():
        if site not in publishers or status.get(site) is True:
            continue
        for url in urls:
            if site_of(host_of(url)) == site:
                continue
            v = ref.plain(url, cross=True)
            if v is True:
                status[site] = True
                break
            if v is None:
                status[site] = None
        status.setdefault(site, False)
    certain = sum(v is True for v in status.values())
    return certain, certain + sum(v is None for v in status.values())


def _expected_rank_bins(detections, ranking: dict[str, int]) -> list[list[str]]:
    same = {p for p, _t, ctx, _m in detections if ctx == "same-site"}
    cross = {p for p, _t, ctx, _m in detections if ctx == "cross-site"}
    rows = [["bin_start", "bin_end", "sites", "same_site_pct", "cross_site_pct"]]
    for b in range((max(ranking.values()) - 1) // RANK_BIN + 1):
        lo, hi = b * RANK_BIN + 1, (b + 1) * RANK_BIN
        members = [dom for dom, r in ranking.items() if lo <= r <= hi]
        n = len(members)
        pct = (lambda s: 100.0 * sum(m in s for m in members) / n if n else 0.0)
        rows.append([str(lo), str(hi), str(n), f"{pct(same):.4f}", f"{pct(cross):.4f}"])
    return rows


def _expected_uncloaked(rows, world: CrawlWorld, ref: Reference, cross_of, plain_of) -> dict:
    """Uncloaked verdict per row.  The uncloak cache keeps the first
    substituted verdict per host, so a host's later rows reuse it; a verdict
    is asserted only where every row of the host would get the same one."""
    by_host: dict[str, list] = {}
    out = {}
    for key, url in rows:
        plain = plain_of[key]
        host = host_of(url)
        hops = world.dns.hops(host)
        if plain is True or host not in world.dns.answers or not hops:
            out[key] = plain
            continue
        sub = url.replace(f"//{host}/", f"//{hops[-1]}/", 1)
        by_host.setdefault(host, []).append((key, plain, ref.plain(sub, cross_of[key])))
    for entries in by_host.values():
        verdicts = {v for _k, _p, v in entries}
        agreed = verdicts.pop() if len(verdicts) == 1 else None
        for key, plain, _v in entries:
            out[key] = agreed if plain is False else None
    return out


def check_blocklist_eval(w: Workload, d: Path) -> list[str]:
    world: CrawlWorld = w.truth["world"]
    ref = Reference(w.truth["rules"])
    truth = w.truth["detections"]
    problems = _diff("detections", _detections(_load(d / "out/publishers.json")), truth)

    if _csv_rows(d / "out/rank_bins.csv") != _expected_rank_bins(truth, w.truth["ranking"]):
        problems.append("rank_bins.csv differs from the planted detections' bins")

    publishers = {p for p, _t, _c, _m in truth}
    lo, hi = _expected_cooccurrence(world, ref, publishers)
    frac = _load(d / "out/cooccurrence.json")["third_party_cooccurrence_fraction"]
    if lo == hi and frac != lo / len(publishers):
        problems.append(f"cooccurrence {frac} != expected {lo}/{len(publishers)}")
    elif not lo / len(publishers) <= frac <= hi / len(publishers):
        problems.append(f"cooccurrence {frac} outside [{lo}, {hi}]/{len(publishers)}")

    txns = {(t.visit_id, t.index): t for t in world.tracker_txns}
    verdicts = _load(d / "def/defense_verdicts.json")["verdicts"]
    got_rows = {(v["visit_id"], v["index"], v["tracker"]) for v in verdicts}
    want_rows = {(t.visit_id, t.index, f"trk{t.tracker:02d}") for t in txns.values()}
    problems += _diff("defense rows", got_rows, want_rows)
    if problems:
        return problems
    for v in verdicts:
        if v["plain"] and not v["uncloaked"]:
            problems.append(f"monotonicity: plain blocked, uncloaked allowed: {v['url']}")
    keys = [((v["visit_id"], v["index"]), v["url"]) for v in verdicts]
    cross_of = {k: not txns[k].same_site for k, _u in keys}
    plain_of = {k: ref.plain(url, cross_of[k]) for k, url in keys}
    expected = {
        "plain": plain_of,
        "uncloaked": _expected_uncloaked(keys, world, ref, cross_of, plain_of),
        "sinkhole": {k: ref.sinkholed(host_of(u), world.dns.hops(host_of(u)) or []) for k, u in keys},
    }
    tally: dict[str, dict[str, list]] = {}
    for v in verdicts:
        k = (v["visit_id"], v["index"])
        for defense, want in expected.items():
            if want[k] is not None and v[defense] != want[k]:
                problems.append(f"{defense} verdict {v[defense]} != expected {want[k]}: {v['url']}")
            tally.setdefault(v["tracker"], {}).setdefault(defense, []).append(want[k])
    for row in _csv_rows(d / "def/defense_matrix.csv")[1:]:
        tracker, fractions, count = row[0], row[1:4], int(row[4])
        wants = tally.get(tracker, {})
        if count != len(wants.get("plain", ())):
            problems.append(f"{tracker}: {count} evidence transactions, planted {len(wants.get('plain', ()))}")
            continue
        for defense, got in zip(("plain", "uncloaked", "sinkhole"), fractions):
            want = wants[defense]
            if None not in want and got != f"{sum(want) / len(want):.4f}":
                problems.append(f"{tracker} {defense} fraction {got} != {sum(want) / len(want):.4f}")
    return problems[:20]


# --- history-months -----------------------------------------------------------------

def _adoptions(monthly: dict[str, set]) -> set[tuple[str, str, str]]:
    months = sorted(monthly)
    keys = {(p, t) for dets in monthly.values() for p, t, _c, _m in dets}
    events = set()
    for pub, tracker in keys:
        bits = [any(p == pub and t == tracker for p, t, _c, _m in monthly[m]) for m in months]
        for i in range(ADOPTION_WINDOW, len(bits) - ADOPTION_WINDOW + 1):
            if not any(bits[i - ADOPTION_WINDOW:i]) and all(bits[i:i + ADOPTION_WINDOW]):
                events.add((pub, tracker, months[i]))
    return events


def check_history_months(w: Workload, d: Path) -> list[str]:
    monthly = w.truth["monthly"]
    problems = []
    for month, want in monthly.items():
        problems += _diff(f"month {month} detections", _detections(_load(d / f"hist/month_{month}.json")), want)
    got = {(a["publisher"], a["tracker"], a["month"]) for a in _load(d / "hist/adoptions.json")["adoptions"]}
    want = _adoptions(monthly)
    if not w.truth["planted_adoptions"] <= want:
        problems.append("generator: planted adoptions missing from the planted presence")
    problems += _diff("adoptions", got, want)
    doc = _load(d / "val/validation.json")
    vt = w.truth["validation"]
    got = {(e["month"], e["host"], e["reason"], e.get("expected_suffix")) for e in doc["correctness"]}
    problems += _diff("validation correctness", got, vt["correctness"])
    for bucket, want in vt["completeness"].items():
        got = {(e["month"], e["host"], e["tracker"]) for e in doc["completeness"].get(bucket, [])}
        problems += _diff(f"completeness {bucket}", got, want)
    return problems


CHECKS = {
    "crawl-detect": check_crawl_detect,
    "leak-audit": check_leak_audit,
    "blocklist-eval": check_blocklist_eval,
    "history-months": check_history_months,
}
