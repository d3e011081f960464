"""Report rendering: JSON/CSV writers, rank-bin statistics, rollups, and
run manifests.  All output is deterministic for identical inputs."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

from .detect import (
    Context,
    Mechanism,
    PublisherDetection,
    TransactionRef,
    classified_transactions,
    page_site,
)
from .errors import (INTEGER, KEEP, OBJECTS, REQUIRED, STRING, SchemaViolation, field_table, one_of,
                     read_fields, read_json)
from .sitectx import Relation

if TYPE_CHECKING:
    from .defense import DefenseReport
    from .leaks import LeakAuditResult, LeakFinding

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"
DIGEST_BUFFER = 64 * 1024


def sha256_file(path) -> str:
    """SHA-256 of a file, read through one fixed buffer of ``DIGEST_BUFFER``
    bytes, so hashing an input of any size holds no more than that."""
    h = hashlib.sha256()
    buf = bytearray(DIGEST_BUFFER)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def write_json(obj, path):
    payload = {"schema_version": SCHEMA_VERSION, **obj} if isinstance(obj, dict) else obj
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_manifest(out_dir, inputs: dict[str, str], config: dict):
    """Record input digests and config; identical manifests => identical reports."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "inputs": {name: sha256_file(p) for name, p in sorted(inputs.items()) if p},
        "input_paths": {name: str(p) for name, p in sorted(inputs.items()) if p},
        "config": config,
    }
    write_json(manifest, Path(out_dir) / "manifest.json")
    return manifest


def check_manifest(out_dir) -> bool:
    """True when every input recorded in the manifest still has its digest.
    Raises SchemaViolation naming the manifest when it is not one."""
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        return True
    manifest = read_json(path)
    inputs = manifest.get("inputs", {}) if isinstance(manifest, dict) else None
    paths = manifest.get("input_paths", {}) if isinstance(manifest, dict) else None
    if not (isinstance(inputs, dict) and isinstance(paths, dict)
            and all(isinstance(p, str) for p in paths.values())):
        raise SchemaViolation("expected an object with inputs and input_paths objects",
                              path=str(path))
    for name, digest in inputs.items():
        p = paths.get(name)
        if p and Path(p).exists() and sha256_file(p) != digest:
            return False
    return True


def detection_to_dict(det: PublisherDetection) -> dict:
    return {
        "publisher": det.publisher_etld1,
        "tracker": det.tracker_id,
        "context": det.context.value,
        "mechanism": det.cloaking_mechanism.value,
        "evidence": [
            {"visit_id": r.visit_id, "index": r.index, "url": r.url, "host": r.host}
            for r in det.evidence
        ],
    }


DETECTION = field_table(("publisher", STRING, REQUIRED, KEEP),
                        ("tracker", STRING, REQUIRED, KEEP),
                        ("context", one_of(c.value for c in Context), REQUIRED, KEEP),
                        ("evidence", OBJECTS, REQUIRED, KEEP),
                        ("mechanism", one_of(m.value for m in Mechanism), REQUIRED, KEEP))
EVIDENCE = field_table(("visit_id", ("a string or a number", (str, int, float), None), REQUIRED, KEEP),
                       ("index", INTEGER, REQUIRED, KEEP),
                       ("url", STRING, REQUIRED, KEEP),
                       ("host", STRING, REQUIRED, KEEP), prefix="evidence.")


def load_detections(path) -> list[PublisherDetection]:
    """Read a publishers.json back into detections; the inverse of
    detection_to_dict.  Raises SchemaViolation naming the detection."""
    path = str(path)
    doc = read_json(path)
    if type(doc) is not dict or type(doc.get("detections")) is not list:
        raise SchemaViolation("expected an object with a detections array", path=path)
    detections = []
    for i, d in enumerate(doc["detections"]):
        at = f"detection {i}: "
        pub, tracker, context, evidence, mechanism = read_fields(d, DETECTION, SchemaViolation, None, path, at)
        refs = [TransactionRef(*read_fields(e, EVIDENCE, SchemaViolation, None, path, at)) for e in evidence]
        detections.append(PublisherDetection(pub, tracker, Context(context), refs, Mechanism(mechanism)))
    return detections


def write_detections(detections: list[PublisherDetection], out_dir):
    out_dir = Path(out_dir)
    write_json({"detections": [detection_to_dict(d) for d in detections]},
               out_dir / "publishers.json")
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["publisher", "tracker", "context", "mechanism", "evidence_count"])
        for d in detections:
            w.writerow([d.publisher_etld1, d.tracker_id, d.context.value,
                        d.cloaking_mechanism.value, len(d.evidence)])


def leak_finding_to_dict(f: LeakFinding) -> dict:
    return {
        "site": f.site,
        "tracker": f.tracker_id,
        "channel": f.channel.value,
        "cookie_name": f.cookie.name,
        "cookie_setter": f.cookie.setter.value,
        "setter_origin": f.cookie.setter_origin,
        "carrier_url": f.carrier.url,
        "visit_id": f.carrier.visit_id,
        "matched_span": list(f.matched_span),
        "decoded": f.decoded,
        "third_party_setter": f.third_party_setter,
        "active_exfiltration": f.active_exfiltration,
    }


def write_leaks(result: LeakAuditResult, out_dir):
    out_dir = Path(out_dir)
    with open(out_dir / "leaks.jsonl", "w", encoding="utf-8") as fh:
        for f in result.findings:
            fh.write(json.dumps(leak_finding_to_dict(f), sort_keys=True) + "\n")
    rollup: dict[tuple[str, str], set[str]] = {}
    for f in result.findings:
        rollup.setdefault((f.tracker_id, f.channel.value), set()).add(f.site)
    with open(out_dir / "leak_rollup.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["tracker", "channel", "distinct_sites"])
        for (tracker, channel), sites in sorted(rollup.items()):
            w.writerow([tracker, channel, len(sites)])
    with open(out_dir / "transport.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["site", "kind", "tracker", "url"])
        for t in result.transport:
            w.writerow([t.site, t.kind.value, t.tracker_id, t.carrier.url])


def write_defense(report: DefenseReport, out_dir):
    out_dir = Path(out_dir)
    with open(out_dir / "defense_matrix.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["tracker", "plain_blocked_fraction", "uncloaked_blocked_fraction",
                    "sinkhole_blocked_fraction", "evidence_transactions"])
        for tracker, fr in sorted(report.fractions.items()):
            w.writerow([tracker, f"{fr['plain']:.4f}", f"{fr['uncloaked']:.4f}",
                        f"{fr['sinkhole']:.4f}", report.counts[tracker]])
    write_json({
        "verdicts": [
            {"visit_id": v.visit_id, "index": v.index, "url": v.url,
             "tracker": v.tracker_id, "plain": v.plain, "uncloaked": v.uncloaked,
             "sinkhole": v.sinkhole, "dns_missing": v.dns_missing}
            for v in report.verdicts
        ],
        "coverage_warnings": report.coverage_warnings,
    }, out_dir / "defense_verdicts.json")


def rank_bins(
    detections: list[PublisherDetection],
    ranking: dict[str, int],
    bin_size: int = 10000,
) -> list[dict]:
    """Per rank-bin percentage of sites with same-site / cross-site tracking,
    counted in one pass over the ranking; a rank below 1 is in no bin."""
    same = {d.publisher_etld1 for d in detections if d.context is Context.SAME_SITE}
    cross = {d.publisher_etld1 for d in detections if d.context is Context.CROSS_SITE}
    if not ranking:
        return []
    nbins = (max(ranking.values()) - 1) // bin_size + 1
    counts = [[0, 0, 0] for _ in range(nbins)]  # sites, same-site, cross-site
    for domain, rank in ranking.items():
        if rank >= 1:
            count = counts[(rank - 1) // bin_size]
            count[0] += 1
            count[1] += domain in same
            count[2] += domain in cross
    return [{
        "bin_start": b * bin_size + 1,
        "bin_end": (b + 1) * bin_size,
        "sites": n,
        "same_site_pct": 100.0 * n_same / n if n else 0.0,
        "cross_site_pct": 100.0 * n_cross / n if n else 0.0,
    } for b, (n, n_same, n_cross) in enumerate(counts)]


def write_rank_bins(bins: list[dict], out_dir):
    with open(Path(out_dir) / "rank_bins.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_start", "bin_end", "sites", "same_site_pct", "cross_site_pct"])
        for b in bins:
            w.writerow([b["bin_start"], b["bin_end"], b["sites"],
                        f"{b['same_site_pct']:.4f}", f"{b['cross_site_pct']:.4f}"])


def cooccurrence_fraction(
    corpus, detections: list[PublisherDetection], rules, psl
) -> float:
    """Fraction of publisher sites that also load >= 1 blocked third-party tracker."""
    from .defense import match_plain
    from .filterlist import FilterList
    publishers = {d.publisher_etld1 for d in detections}
    if not publishers:
        return 0.0
    rules = FilterList.of(rules)
    origins: dict = {}
    with_third_party = set()
    for visit in corpus:
        site = page_site(visit, psl)
        if site not in publishers or site in with_third_party:
            continue
        for txn, relation in classified_transactions(visit, psl, origins):
            if relation is Relation.CROSS_SITE and match_plain(
                txn.request_url, relation, rules, visit.page_host, txn.content_type_class
            ).blocked:
                with_third_party.add(site)
                break
    return len(with_third_party) / len(publishers)
