"""Reference IP pool: every lookup a linear scan of the pool's networks.

``NaiveIpPool`` is ``dnsgraph.IpPool`` as it was before its ranges were put
in a ``NetworkIndex`` and before ``add_range`` skipped the rescan of single
addresses for a range its tracker already held; the differential tests run
the same add sequences through both.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass

from cnametrack.errors import InvalidCidr


@dataclass
class _PoolEntry:
    tracker_id: str
    first_seen: str | None  # YYYY-MM; lexicographic order == chronological


class NaiveIpPool:
    """Accumulated tracker addresses: single IPs plus CIDR ranges, with provenance."""

    def __init__(self):
        self._singles: dict[ipaddress._BaseAddress, list[_PoolEntry]] = {}
        self._ranges: dict[ipaddress._BaseNetwork, list[_PoolEntry]] = {}

    def _upsert(self, entries: list[_PoolEntry], tracker_id: str, month: str | None):
        for e in entries:
            if e.tracker_id == tracker_id:
                if month is not None and (e.first_seen is None or month < e.first_seen):
                    e.first_seen = month
                return
        entries.append(_PoolEntry(tracker_id, month))

    def add_range(self, cidr: str, tracker_id: str, month: str | None = None):
        try:
            net = ipaddress.ip_network(cidr, strict=False)
        except ValueError as exc:
            raise InvalidCidr(str(exc)) from exc
        self._upsert(self._ranges.setdefault(net, []), tracker_id, month)
        # keep the no-single-covered-by-own-range invariant
        for addr in [a for a in self._singles if a in net]:
            entries = self._singles[addr]
            entries[:] = [e for e in entries if e.tracker_id != tracker_id]
            if not entries:
                del self._singles[addr]

    def add_address(self, addr: str, tracker_id: str, month: str | None = None):
        ip = ipaddress.ip_address(addr)
        for net, entries in self._ranges.items():
            if ip in net and any(e.tracker_id == tracker_id for e in entries):
                return  # already covered by this tracker's range
        self._upsert(self._singles.setdefault(ip, []), tracker_id, month)

    def owners(self, addr: str) -> set[str]:
        """Tracker ids holding an address, as a single or by range; none when
        the address does not parse."""
        try:
            ip = ipaddress.ip_address(addr)
        except ValueError:
            return set()
        hits = {e.tracker_id for e in self._singles.get(ip, ())}
        for net, entries in self._ranges.items():
            if ip in net:
                hits.update(e.tracker_id for e in entries)
        return hits

    def contains(self, addr: str, tracker_id: str) -> bool:
        return tracker_id in self.owners(addr)

    def summary(self) -> dict:
        """Deterministic snapshot for reports: per-tracker single/range counts."""
        per: dict[str, dict[str, int]] = {}
        for entries in self._singles.values():
            for e in entries:
                per.setdefault(e.tracker_id, {"singles": 0, "ranges": 0})["singles"] += 1
        for entries in self._ranges.values():
            for e in entries:
                per.setdefault(e.tracker_id, {"singles": 0, "ranges": 0})["ranges"] += 1
        return dict(sorted(per.items()))

