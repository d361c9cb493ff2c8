"""Leases and the track file.

The authoritative DNScup server keeps, per paper §5.2, a database file
("track file") of the local nameservers that queried each tracked record
and were granted leases.  Each tuple carries exactly the five fields the
prototype stores: **source address, zone/owner name, query type, query
time, lease length**.  :class:`LeaseTable` is that file in memory with an
expiry index; :func:`save_track_file` / :func:`load_track_file` give it
the on-disk form so a restarted server resumes its obligations.
"""

from __future__ import annotations

import dataclasses
import io
from typing import Dict, Iterator, List, Optional, TextIO, Tuple, Union

from ..dnslib import Name, RRType, as_name
from ..net import Endpoint

#: Leases are tracked per (owner name, rrtype) — the unit of consistency.
RecordKey = Tuple[Name, RRType]


@dataclasses.dataclass
class Lease:
    """One granted lease: the paper's five-field track-file tuple."""

    __slots__ = ("cache", "name", "rrtype", "granted_at", "length")

    cache: Endpoint          # source address of the local nameserver
    name: Name               # queried owner name
    rrtype: RRType           # query type
    granted_at: float        # query time
    length: float            # lease length, seconds

    @property
    def expires_at(self) -> float:
        """Absolute expiry time of this lease."""
        return self.granted_at + self.length

    def is_valid(self, now: float) -> bool:
        """True while unexpired at time ``now``."""
        return now < self.expires_at

    def remaining(self, now: float) -> float:
        """Seconds left before expiry (never negative)."""
        return max(0.0, self.expires_at - now)

    def key(self) -> RecordKey:
        """The lookup key for this object."""
        return (self.name, self.rrtype)


@dataclasses.dataclass
class LeaseTableStats:
    """Counters exposed for tests, benchmarks and operators."""
    grants: int = 0
    renewals: int = 0
    expirations: int = 0
    revocations: int = 0
    peak_active: int = 0


class LeaseTable:
    """All live leases on one authoritative server.

    Lookup paths:

    * by record — "who must I notify about this change?"
      (:meth:`holders`), the notification module's question;
    * by cache — "what does this nameserver hold?" (:meth:`leases_of`),
      used for re-negotiation when a cache's rates shift (§5.1.2).

    Expired leases are swept lazily on access and explicitly via
    :meth:`sweep`.  ``capacity`` bounds live leases — the storage
    allowance P_max of §4.2.1; :meth:`grant` refuses beyond it.
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self.stats = LeaseTableStats()
        self._by_record: Dict[RecordKey, Dict[Endpoint, Lease]] = {}
        self._active = 0
        #: Observability hooks, attached by the DNScup middleware when an
        #: :class:`repro.obs.Observability` bundle is configured: a
        #: :class:`repro.obs.TraceBus` receiving ``lease.*`` lifecycle
        #: events, and a :class:`repro.obs.Histogram` of granted lease
        #: lengths.  None by default — the guarded emits cost nothing.
        self.trace = None
        self.length_hist = None
        #: Load-attribution hook: a per-server
        #: :class:`repro.obs.load.LoadRecorder` facet.  Grants are
        #: query-class load, renewals renewal-class (PROTOCOL §9.5).
        self.load_ledger = None

    # -- mutation ------------------------------------------------------------

    def grant(self, cache: Endpoint, name, rrtype: RRType,
              now: float, length: float) -> Optional[Lease]:
        """Grant or renew a lease; None when the storage budget is full."""
        if length <= 0:
            raise ValueError(f"lease length must be positive: {length}")
        owner = as_name(name)
        if type(rrtype) is not RRType:
            rrtype = RRType(rrtype)
        key = (owner, rrtype)
        stats = self.stats
        holders = self._by_record.get(key)
        existing = None if holders is None else holders.get(cache)
        if existing is not None and existing.is_valid(now):
            existing.granted_at = now
            existing.length = length
            stats.renewals += 1
            if self.length_hist is not None:
                self.length_hist.observe(length)
            if self.load_ledger is not None:
                self.load_ledger.record(owner.to_text(), "renewal", now)
            if self.trace is not None:
                self.trace.emit("lease.renew", now, cache, owner, rrtype,
                                length)
            return existing
        if existing is not None:
            # Present but expired: reclaim before counting capacity.
            del holders[cache]
            if not holders:
                del self._by_record[key]
            self._active -= 1
            stats.expirations += 1
            if self.trace is not None:
                self.trace.emit("lease.expire", now, cache, owner, rrtype)
        if self.capacity is not None and self._active >= self.capacity:
            self.sweep(now)
            if self._active >= self.capacity:
                return None
        lease = Lease(cache, owner, rrtype, now, length)
        # The holders dict is (re-)resolved only now: an emergency sweep
        # above may have deleted the record's (emptied) dict, and
        # inserting into a stale reference would leak the lease out of
        # the index while still counting it against capacity.
        self._by_record.setdefault(key, {})[cache] = lease
        active = self._active = self._active + 1
        stats.grants += 1
        if active > stats.peak_active:
            stats.peak_active = active
        if self.length_hist is not None:
            self.length_hist.observe(length)
        if self.load_ledger is not None:
            self.load_ledger.record(owner.to_text(), "query", now)
        if self.trace is not None:
            self.trace.emit("lease.grant", now, cache, owner, rrtype, length)
        return lease

    def revoke(self, cache: Endpoint, name, rrtype: RRType) -> bool:
        """Drop a lease early (the communication-constrained algorithm's
        "deprivation" step, §4.2.2)."""
        key = (as_name(name), RRType(rrtype))
        holders = self._by_record.get(key)
        if holders and cache in holders:
            del holders[cache]
            self._active -= 1
            self.stats.revocations += 1
            if not holders:
                del self._by_record[key]
            if self.trace is not None:
                self.trace.emit("lease.revoke", None, cache, key[0], key[1])
            return True
        return False

    def sweep(self, now: float) -> int:
        """Remove every expired lease; returns the number removed."""
        removed = 0
        for key in list(self._by_record):
            holders = self._by_record[key]
            for cache in [c for c, lease in holders.items()
                          if not lease.is_valid(now)]:
                del holders[cache]
                removed += 1
                if self.trace is not None:
                    self.trace.emit("lease.expire", now, cache, key[0],
                                    key[1])
            if not holders:
                del self._by_record[key]
        self._active -= removed
        self.stats.expirations += removed
        return removed

    # -- queries ------------------------------------------------------------------

    def holders(self, name, rrtype: RRType, now: float) -> List[Lease]:
        """Valid leases on (name, rrtype) — the caches to notify."""
        if type(rrtype) is not RRType:
            rrtype = RRType(rrtype)
        holders = self._by_record.get((as_name(name), rrtype))
        if not holders:
            return []
        return [lease for lease in holders.values() if lease.is_valid(now)]

    def get(self, cache: Endpoint, name, rrtype: RRType) -> Optional[Lease]:
        """Lookup by key; None when absent."""
        key = (as_name(name), RRType(rrtype))
        return self._by_record.get(key, {}).get(cache)

    def leases_of(self, cache: Endpoint, now: float) -> List[Lease]:
        """Every valid lease held by one local nameserver."""
        result = []
        for holders in self._by_record.values():
            lease = holders.get(cache)
            if lease is not None and lease.is_valid(now):
                result.append(lease)
        return result

    def active_count(self, now: Optional[float] = None) -> int:
        """Live leases; pass ``now`` to exclude expired-but-unswept ones."""
        if now is None:
            return self._active
        return sum(1 for holders in self._by_record.values()
                   for lease in holders.values() if lease.is_valid(now))

    def tracked_records(self) -> List[RecordKey]:
        """(name, type) pairs with at least one lease entry."""
        return list(self._by_record.keys())

    def __iter__(self) -> Iterator[Lease]:
        for holders in self._by_record.values():
            yield from holders.values()

    def __len__(self) -> int:
        return self._active

    def __repr__(self) -> str:
        return (f"LeaseTable(active={self._active}, "
                f"records={len(self._by_record)}, capacity={self.capacity})")


# -- the on-disk track file ------------------------------------------------------


TRACK_FILE_HEADER = "# DNScup track file v1: addr port name type granted_at length"


def save_track_file(table: LeaseTable, target: Union[str, TextIO]) -> int:
    """Write every lease (valid or not) as one line per tuple."""
    own = isinstance(target, str)
    stream: TextIO = open(target, "w") if own else target  # type: ignore[arg-type]
    try:
        stream.write(TRACK_FILE_HEADER + "\n")
        count = 0
        for lease in table:
            stream.write(
                f"{lease.cache[0]} {lease.cache[1]} {lease.name.to_text()} "
                f"{lease.rrtype.name} {lease.granted_at!r} {lease.length!r}\n")
            count += 1
        return count
    finally:
        if own:
            stream.close()


def load_track_file(source: Union[str, TextIO],
                    capacity: Optional[int] = None) -> LeaseTable:
    """Rebuild a :class:`LeaseTable` from its on-disk form."""
    own = isinstance(source, str)
    stream: TextIO = open(source) if own else source  # type: ignore[arg-type]
    try:
        table = LeaseTable(capacity=capacity)
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 6:
                raise ValueError(f"track file line {lineno}: want 6 fields, "
                                 f"got {len(fields)}")
            addr, port, name, rrtype, granted_at, length = fields
            lease = Lease((addr, int(port)), as_name(name),
                          RRType.from_text(rrtype), float(granted_at),
                          float(length))
            holders = table._by_record.setdefault(lease.key(), {})
            if lease.cache not in holders:
                table._active += 1
            holders[lease.cache] = lease
        return table
    finally:
        if own:
            stream.close()
