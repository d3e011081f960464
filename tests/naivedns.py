"""Reference DNS store: one frozen record per answer, a scan per CNAME.

``NaiveDnsRecordStore`` is ``dnsgraph.DnsRecordStore`` as it was before the
first CNAME of each (host, month) was kept in a dict and records were stored
as plain tuples; the differential tests run the same add sequences through
both.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from cnametrack.dnsgraph import resolve_chain
from cnametrack.errors import CnameCycle

log = logging.getLogger("cnametrack.dnsgraph")


@dataclass(frozen=True)
class DnsRecord:
    rr_type: str  # "CNAME" or "A" (AAAA stored under "A" semantics)
    answer: str
    snapshot_month: str | None = None  # YYYY-MM


class NaiveDnsRecordStore:
    """Hostname -> record set, case-insensitive; immutable after load."""

    def __init__(self):
        self._records: dict[str, list[DnsRecord]] = {}

    def add(self, host: str, rr_type: str, answer: str, month: str | None = None):
        host = host.lower().rstrip(".")
        answer = answer.lower().rstrip(".") if rr_type == "CNAME" else answer
        recs = self._records.setdefault(host, [])
        if rr_type == "CNAME":
            prior = [r for r in recs if r.rr_type == "CNAME" and r.snapshot_month == month]
            if prior:
                if prior[0].answer != answer:
                    log.warning("multiple CNAME answers for %s (%s); keeping first", host, month)
                return
        recs.append(DnsRecord(rr_type, answer, month))

    def __contains__(self, host: str) -> bool:
        return host.lower().rstrip(".") in self._records

    def records(self, host: str) -> list[DnsRecord]:
        return self._records.get(host.lower().rstrip("."), [])

    def cname_target(self, host: str) -> str | None:
        for rec in self.records(host):
            if rec.rr_type == "CNAME":
                return rec.answer
        return None

    def a_records(self, host: str) -> list[str]:
        return [r.answer for r in self.records(host) if r.rr_type == "A"]

    def hostnames(self):
        return self._records.keys()

    def chain(self, host: str):
        """The host's ``resolve_chain``, unmemoized; None when it cycles."""
        try:
            return resolve_chain(host, self)
        except CnameCycle:
            return None
