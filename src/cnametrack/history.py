"""Historical reconstruction: backward month-by-month detection with IP-pool
accumulation, cross-validation against external DNS data, and adoption-window
analytics."""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass

from .detect import (
    Context,
    PublisherDetection,
    SignatureIndex,
    detect_publishers,
    evidence_transactions,
)
from .dnsgraph import DnsRecordStore, IpPool, accumulate_ips
from .errors import NonContiguousMonths
from .model import PageVisit, TrackerSignature, signatures_by_tracker
from .sitectx import PublicSuffixTable

ADOPTION_WINDOW = 6


@dataclass
class MonthDataset:
    month: str  # YYYY-MM
    corpus: list[PageVisit]
    dns: DnsRecordStore


@dataclass
class MonthlyDetection:
    month: str
    detections: list[PublisherDetection]
    pool_snapshot: dict

    @property
    def publishers(self) -> set[tuple[str, str, Context]]:
        return {(d.publisher_etld1, d.tracker_id, d.context) for d in self.detections}


_MONTH = re.compile(r"[0-9]{4}-(?:0[1-9]|1[0-2])")


def is_month(value) -> bool:
    """Whether ``value`` is a ``YYYY-MM`` string with a month of 01-12."""
    return isinstance(value, str) and _MONTH.fullmatch(value) is not None


def _month_index(month: str) -> int:
    year, mon = month.split("-")
    return int(year) * 12 + int(mon) - 1


def _month_name(index: int) -> str:
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def check_descending_contiguous(months: list[str], where: str | None = None):
    """Raise NonContiguousMonths unless each month directly precedes the one
    before it.  The message names the first pair that does not, and why;
    ``where`` (the manifest the months came from) prefixes it."""
    for prev, cur in zip(months, months[1:]):
        newer, older = _month_index(prev), _month_index(cur)
        if newer - older == 1:
            continue
        if newer == older:
            fault = f"duplicate {cur}"
        elif newer < older:
            fault = f"{cur} is not older than {prev}"
        elif newer - older == 2:
            fault = f"missing {_month_name(older + 1)}"
        else:
            fault = f"missing {_month_name(older + 1)} to {_month_name(newer - 1)}"
        prefix = f"{where}: " if where is not None else ""
        raise NonContiguousMonths(f"{prefix}months {prev} -> {cur} are not contiguous ({fault})")


def _confirmed_hosts(detections: list[PublisherDetection]) -> dict[str, str]:
    hosts: dict[str, str] = {}
    for det in detections:
        for ref in det.evidence:
            hosts.setdefault(ref.host, det.tracker_id)
    return hosts


def backward_iterate(
    months: Iterable[MonthDataset],
    sigs: list[TrackerSignature],
    psl: PublicSuffixTable,
    pool: IpPool | None = None,
) -> list[MonthlyDetection]:
    """Detect publishers month by month, newest first, growing the tracker IP
    pool as confirmed tracking domains resolve to new addresses.

    ``months`` may be any iterable, such as a generator that reads each month
    only when it is reached: nothing of a month but its ``MonthlyDetection``
    and what it added to the pool is kept once the next month is requested.
    Each month is checked to directly precede the one before it.

    A caller-supplied pool is mutated in place so the accumulated addresses
    can be reused (e.g. by cross_validate)."""
    if pool is None:
        pool = IpPool()
    confirmed: dict[str, str] = {}
    warned_cycles: set[str] = set()  # each cycle host is reported once, not once per month
    out: list[MonthlyDetection] = []
    for month_ds in months:
        if out:
            check_descending_contiguous([out[-1].month, month_ds.month])
        out.append(_detect_month(month_ds, sigs, psl, pool, confirmed, warned_cycles))
        del month_ds  # release this month before the iterable reads the next
    return out


def _detect_month(month_ds, sigs, psl, pool, confirmed, warned_cycles):
    """One month of ``backward_iterate``: fold the addresses that already
    confirmed tracking domains resolve to this month into the pool, detect,
    then grow the pool and ``confirmed`` from this month's detections."""
    accumulate_ips(confirmed, month_ds.dns, pool)
    detections = detect_publishers(month_ds.corpus, month_ds.dns, sigs, pool, psl,
                                   warned_cycles=warned_cycles)
    new_hosts = _confirmed_hosts(detections)
    # remote addresses observed on confirmed tracking transactions also
    # count as tracker-used IPs
    for det, _ref, _visit, txn in evidence_transactions(month_ds.corpus, detections):
        if txn.remote_ip:
            try:
                pool.add_address(txn.remote_ip, det.tracker_id)
            except ValueError:
                pass
    accumulate_ips(new_hosts, month_ds.dns, pool)
    confirmed.update(new_hosts)
    return MonthlyDetection(month_ds.month, detections, pool.summary())


@dataclass
class ValidationReport:
    """Cross-validation against an external DNS dataset.

    correctness: detected publishers lacking a tracker-pointing CNAME in the
    external data that month, annotated with the suspected reason.
    completeness: external-CNAME domains we did not detect, partitioned into
    disjoint buckets.
    """

    correctness: list[dict]
    completeness: dict[str, list[dict]]


def _external_tracker_chain(host, store, index: SignatureIndex):
    """First signature, in list order, whose suffix the host's external chain
    reaches, if any."""
    if (chain := store.chain(host)) is None:
        return None, None
    positions = index.cname_positions(chain.hops)
    return (index.sigs[min(positions)] if positions else None), chain


def _near_miss_suffix(host: str, sigs: list[TrackerSignature]) -> str | None:
    """Known tracker suffix within edit distance 1 of the host's suffix part."""
    for sig in sigs:
        for suffix in sig.cname_suffixes:
            for i in range(len(host) - len(suffix) + 1):
                part = host[i:i + len(suffix)]
                if part == suffix:
                    continue
                if sum(a != b for a, b in zip(part, suffix)) == 1 and (
                    i == 0 or host[i - 1] == "."
                ):
                    return suffix
    return None


def external_trackers(
    external_dns: dict[str, DnsRecordStore], sigs: list[TrackerSignature]
) -> dict[str, dict[str, TrackerSignature]]:
    """month -> {host: first signature its external chain reaches}, over the
    hostnames of each external snapshot, in sorted order: the hosts whose
    requests ``cross_validate`` looks at."""
    index = SignatureIndex(sigs)
    trackers: dict[str, dict[str, TrackerSignature]] = {}
    for month, ext in external_dns.items():
        hosts = trackers[month] = {}
        for host in sorted(ext.hostnames()):
            sig = _external_tracker_chain(host, ext, index)[0]
            if sig is not None:
                hosts[host] = sig
    return trackers


def host_paths(corpus: list[PageVisit], hosts) -> dict[str, set[str]]:
    """Each of ``hosts`` that a corpus requests, with the paths (with query)
    requested from it: all that ``cross_validate`` reads of a month's corpus."""
    paths: dict[str, set[str]] = {}
    for visit in corpus:
        for txn in visit.transactions:
            if txn.host in hosts:
                paths.setdefault(txn.host, set()).add(txn.path_and_query)
    return paths


def cross_validate(
    monthly: list[MonthlyDetection],
    external_dns: dict[str, DnsRecordStore],
    trackers: dict[str, dict[str, TrackerSignature]],
    corpus_paths: dict[str, dict[str, set[str]]],
    sigs: list[TrackerSignature],
    pool: IpPool | None,
) -> ValidationReport:
    """Check ``monthly`` against the external DNS snapshots.

    ``trackers`` is ``external_trackers`` of the snapshots.  ``corpus_paths``
    maps a month to ``host_paths`` of its corpus for (at least) the month's
    ``trackers`` hosts, so no corpus has to stay loaded; a month or host
    missing from it counts as never requested.  An undetected host's paths
    are checked against every signature carrying its tracker id."""
    ordered_months = sorted(external_dns)
    correctness: list[dict] = []
    buckets: dict[str, list[dict]] = {
        "absent-from-corpus": [],
        "no-tracking-request": [],
        "signature-mismatch": [],
        "ip-outside-pool": [],
    }
    index = SignatureIndex(sigs)
    sigs_of = signatures_by_tracker(sigs)

    for monthly_det in monthly:
        month = monthly_det.month
        ext = external_dns.get(month)
        if ext is None:
            continue
        for det in monthly_det.detections:
            for host in sorted({r.host for r in det.evidence}):
                sig, chain = _external_tracker_chain(host, ext, index)
                if sig is not None:
                    continue  # external data agrees
                entry = {"month": month, "publisher": det.publisher_etld1,
                         "tracker": det.tracker_id, "host": host}
                if chain is None or (not chain.hops and not chain.terminal_ips):
                    appears_later = any(host in trackers[m] for m in ordered_months if m > month)
                    entry["reason"] = "timing-gap" if appears_later else "missing-external-data"
                else:
                    typo = next(
                        (s for hop in chain.hops if (s := _near_miss_suffix(hop, sigs))),
                        None,
                    )
                    if typo:
                        entry["reason"] = "typo-domain"
                        entry["expected_suffix"] = typo
                    elif pool is not None and any(
                        pool.contains(ip, det.tracker_id) for ip in chain.terminal_ips
                    ):
                        entry["reason"] = "stale-cname"
                    else:
                        entry["reason"] = "unexplained"
                correctness.append(entry)

    detected_hosts: dict[str, set[str]] = {}
    for monthly_det in monthly:
        hosts = detected_hosts.setdefault(monthly_det.month, set())
        for det in monthly_det.detections:
            hosts.update(r.host for r in det.evidence)

    for month in ordered_months:
        corpus_hosts = corpus_paths.get(month, {})
        for host, sig in trackers[month].items():
            if host in detected_hosts.get(month, set()):
                continue
            entry = {"month": month, "host": host, "tracker": sig.tracker_id}
            paths = corpus_hosts.get(host)
            if not paths:
                buckets["absent-from-corpus"].append(entry)
            else:
                tracker_sigs = sigs_of[sig.tracker_id]
                path_hit = any(s.path_match(p) for s in tracker_sigs for p in paths)
                if not path_hit:
                    # requests exist but none matches the tracker's signatures;
                    # distinguish "no tracking-shaped request at all" from a
                    # near-miss on a pattern
                    tracking_shaped = any(
                        any(p.startswith(pat.split("*")[0]) for p in paths)
                        for s in tracker_sigs for pat in s.path_patterns if pat.split("*")[0]
                    )
                    if tracking_shaped:
                        buckets["signature-mismatch"].append(entry)
                    else:
                        buckets["no-tracking-request"].append(entry)
                else:
                    buckets["ip-outside-pool"].append(entry)
    return ValidationReport(correctness, buckets)


def adoption_windows(monthly: list[MonthlyDetection]) -> list[tuple[str, str, str]]:
    """(publisher, tracker, adoption month) for publishers absent
    ``ADOPTION_WINDOW`` consecutive months then present for the following
    ``ADOPTION_WINDOW`` months."""
    by_month = sorted(monthly, key=lambda m: m.month)
    months = [m.month for m in by_month]
    present = [{(d.publisher_etld1, d.tracker_id) for d in m.detections} for m in by_month]
    presence = {key: [key in p for p in present] for key in set().union(*present)}
    events = []
    for (pub, tracker), bits in sorted(presence.items()):
        for i in range(ADOPTION_WINDOW, len(bits) - ADOPTION_WINDOW + 1):
            if not any(bits[i - ADOPTION_WINDOW:i]) and all(bits[i:i + ADOPTION_WINDOW]):
                events.append((pub, tracker, months[i]))
    return events
