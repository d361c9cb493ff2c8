"""Lease renegotiation (paper §5.1.2).

"In reality, a DNS cache may monitor the rates of cached records in the
incoming queries.  When it detects a significant change in query rates,
the DNS cache will notify the authoritative DNS nameserver to
re-negotiate the current leases."

The :class:`RenegotiationAgent` runs on the local nameserver: on a
timer it compares each leased record's *current* client query rate with
the rate reported when the lease was granted.  A shift beyond
``change_factor`` (in either direction) triggers a renegotiation — a
direct DNScup-aware query to the granting server carrying the fresh RRC
value.  The server's listening module then re-decides:

* rate went up → the record clears the grant threshold more easily and
  the lease is refreshed (and the answer re-fetched, a freshness bonus);
* rate collapsed → the server declines, the cache notes the loss, and
  the entry decays back to plain TTL behaviour when the old lease ends.

No new message type is needed: renegotiation *is* a query with an
up-to-date RRC, exactly the incremental-deployment spirit of the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..dnslib import Message, Name, RRType, WireFormatError, make_query
from ..net import PeriodicTimer
from ..server.rates import rate_to_rrc
from ..server.resolver import LeaseGrantInfo, RecursiveResolver


@dataclasses.dataclass
class RenegotiationStats:
    """Counters exposed for tests, benchmarks and operators."""
    checks: int = 0
    renegotiations_sent: int = 0
    leases_refreshed: int = 0
    leases_lost: int = 0
    failures: int = 0


class RenegotiationAgent:
    """Cache-side rate monitoring and lease renegotiation."""

    def __init__(self, resolver: RecursiveResolver,
                 interval: float = 300.0,
                 change_factor: float = 4.0,
                 min_rate_floor: float = 1e-6,
                 trace=None):
        if change_factor <= 1.0:
            raise ValueError("change_factor must exceed 1")
        if not resolver.dnscup_enabled:
            raise ValueError("renegotiation needs a DNScup-enabled resolver")
        self.resolver = resolver
        self.change_factor = change_factor
        self.min_rate_floor = min_rate_floor
        self.stats = RenegotiationStats()
        #: Optional :class:`repro.obs.TraceBus` receiving ``renego.*``
        #: events; costs nothing while None.
        self.trace = trace
        #: Load-attribution hook: the full
        #: :class:`repro.obs.load.LoadLedger` (not a per-server facet —
        #: the agent targets whichever server granted each lease), so
        #: renegotiations count as renewal-class load on the *granting*
        #: server's ledger row.
        self.load_ledger = None
        self._timer = PeriodicTimer(resolver.host.simulator, interval,
                                    self.run_once)

    def stop(self) -> None:
        """Stop permanently; safe to call more than once."""
        self._timer.stop()

    # -- one scan ------------------------------------------------------------

    def run_once(self) -> int:
        """Scan all leased records; returns renegotiations initiated."""
        resolver = self.resolver
        now = resolver.now
        initiated = 0
        for key in list(resolver.lease_grants):
            info = resolver.lease_grants[key]
            entry = resolver.cache.peek(*key)
            if entry is None or not entry.has_lease(now):
                # Lease lapsed (or entry evicted): nothing to renegotiate.
                del resolver.lease_grants[key]
                continue
            self.stats.checks += 1
            current = resolver.rates.rate(key, now)
            if self._significant_change(info.rate_at_grant, current):
                self._renegotiate(key, info, current)
                initiated += 1
        return initiated

    def _significant_change(self, old_rate: float, new_rate: float) -> bool:
        old_rate = max(old_rate, self.min_rate_floor)
        new_rate = max(new_rate, self.min_rate_floor)
        ratio = new_rate / old_rate
        return ratio >= self.change_factor or ratio <= 1.0 / self.change_factor

    # -- the exchange ------------------------------------------------------------

    def _renegotiate(self, key: Tuple[Name, RRType], info: LeaseGrantInfo,
                     current_rate: float) -> None:
        resolver = self.resolver
        query = make_query(key[0], key[1], recursion_desired=False,
                           rrc=rate_to_rrc(current_rate))
        self.stats.renegotiations_sent += 1
        if self.load_ledger is not None:
            self.load_ledger.record(f"{info.origin[0]}:{info.origin[1]}",
                                    key[0].to_text(), "renewal",
                                    resolver.now)
        if self.trace is not None:
            self.trace.emit("renego.send", None, key[0], key[1],
                            current_rate, query.id)
        resolver.upstream_socket.request(
            query.to_wire(), info.origin, query.id,
            _Exchange(self, key, info, current_rate).on_response,
            retry=resolver.retry)

    def _on_response(self, key: Tuple[Name, RRType], info: LeaseGrantInfo,
                     current_rate: float,
                     payload: Optional[bytes]) -> None:
        resolver = self.resolver
        now = resolver.now
        if payload is None:
            self.stats.failures += 1
            if self.trace is not None:
                self.trace.emit("renego.fail", None, key[0], key[1],
                                "timeout")
            return
        try:
            response = Message.from_wire(payload)
        except (WireFormatError, ValueError):
            self.stats.failures += 1
            if self.trace is not None:
                self.trace.emit("renego.fail", None, key[0], key[1],
                                "malformed")
            return
        # Freshness bonus: adopt the re-fetched answer either way.
        from ..dnslib import records_to_rrsets
        for rrset in records_to_rrsets(response.answer):
            if (rrset.name, rrset.rrtype) == key:
                resolver.cache.apply_cache_update(rrset, now)
        if response.llt:
            resolver.cache.set_lease(key[0], key[1], now + response.llt)
            resolver.lease_grants[key] = LeaseGrantInfo(
                origin=info.origin, granted_at=now,
                llt=float(response.llt), rate_at_grant=current_rate)
            self.stats.leases_refreshed += 1
            if self.trace is not None:
                self.trace.emit("renego.refresh", now, key[0], key[1],
                                float(response.llt))
        else:
            # Declined: remember the shrunken rate so the agent does not
            # keep re-asking; the old lease simply runs out.
            resolver.lease_grants[key] = dataclasses.replace(
                info, rate_at_grant=current_rate)
            self.stats.leases_lost += 1
            if self.trace is not None:
                self.trace.emit("renego.lost", now, key[0], key[1])


@dataclasses.dataclass(eq=False)
class _Exchange:
    """One renegotiation in flight: what its response handler needs."""

    __slots__ = ("agent", "key", "info", "current_rate")

    agent: RenegotiationAgent
    key: Tuple[Name, RRType]
    info: LeaseGrantInfo
    current_rate: float

    def on_response(self, payload: Optional[bytes], src: object) -> None:
        """The granting server's answer, or ``(None, None)`` on timeout."""
        self.agent._on_response(self.key, self.info, self.current_rate,
                                payload)
