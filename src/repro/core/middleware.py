"""DNScup as middleware: wiring the modules onto an authoritative server.

:class:`DNScup` is the public entry point the paper's title promises — a
middleware layer attached to an existing nameserver with "minor
modifications".  Attaching:

* registers the :class:`~repro.core.listening.ListeningModule` on the
  server's ``query_hooks`` (lease negotiation per query);
* subscribes the :class:`~repro.core.detection.DetectionModule` to every
  zone the server masters;
* connects the :class:`~repro.core.notification.NotificationModule` to
  the server's own port-53 socket for CACHE-UPDATE fan-out and acks;
* shares one :class:`~repro.core.lease.LeaseTable` (the track file)
  among them.

Everything else about the server is untouched ("unchanged named
modules", Figure 6) and plain-DNS clients never see a difference.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..dnslib import Key, Name, RRType
from ..net import RetryPolicy
from ..obs import LEASE_BUCKETS, Observability
from ..server import AuthoritativeServer
from .detection import DetectionModule
from .lease import LeaseTable, load_track_file, save_track_file
from .listening import ListeningModule
from .notification import NotificationModule
from .policy import (
    DynamicLeasePolicy,
    LeasePolicy,
    MAX_LEASE_CDN,
    MAX_LEASE_DYN,
    MAX_LEASE_REGULAR,
    MaxLeaseFn,
)


@dataclasses.dataclass
class DNScupConfig:
    """Tunable knobs, defaulting to the paper's settings."""

    #: Server storage allowance: maximum live leases (None = unbounded).
    lease_capacity: Optional[int] = None
    #: Sliding window for server-side rate observation, seconds.
    rate_window: float = 3600.0
    #: Poll interval for zones edited out-of-band (None = event-only).
    zone_poll_interval: Optional[float] = None
    #: Retransmission schedule for CACHE-UPDATE notifications.
    notify_retry: RetryPolicy = dataclasses.field(
        default_factory=lambda: RetryPolicy(initial_timeout=1.0, max_attempts=4))
    #: §5.3 secure mode: sign CACHE-UPDATEs with this TSIG key and
    #: require signed acks (None = plain-text, the prototype default).
    tsig_key: Optional["Key"] = None
    #: Online deprivation (§4.2.2 applied live): when the lease table is
    #: full, revoke the coldest live lease to admit a hotter candidate.
    evict_under_pressure: bool = False
    #: Observability bundle (:class:`repro.obs.Observability`): when set,
    #: the lease table, detection and notification modules emit trace
    #: events and every module's counters are mirrored into the metrics
    #: registry.  None (the default) leaves all hooks detached and the
    #: instrumented paths cost nothing.
    observability: Optional["Observability"] = None


def category_max_lease(categories: Dict[Name, str]) -> MaxLeaseFn:
    """A :data:`MaxLeaseFn` from a domain→category map.

    Categories are the paper's three: ``"regular"`` (6-day max),
    ``"cdn"`` (200 s), ``"dyn"`` (6000 s).  Unknown names get the
    regular maximum.  Matching walks up the name so ``www.example.com``
    inherits ``example.com``'s category.
    """
    limits = {"regular": float(MAX_LEASE_REGULAR),
              "cdn": float(MAX_LEASE_CDN),
              "dyn": float(MAX_LEASE_DYN)}

    def max_lease(name: Name, rrtype: RRType) -> float:
        for ancestor in name.ancestors():
            category = categories.get(ancestor)
            if category is not None:
                return limits.get(category, float(MAX_LEASE_REGULAR))
        return float(MAX_LEASE_REGULAR)

    return max_lease


class DNScup:
    """The assembled middleware on one authoritative server."""

    def __init__(self, server: AuthoritativeServer,
                 policy: Optional[LeasePolicy] = None,
                 max_lease_fn: Optional[MaxLeaseFn] = None,
                 config: Optional[DNScupConfig] = None):
        self.server = server
        self.config = config or DNScupConfig()
        self.policy = policy or DynamicLeasePolicy(rate_threshold=0.0)
        self.table = LeaseTable(capacity=self.config.lease_capacity)
        simulator = server.host.simulator
        self.listening = ListeningModule(
            simulator, self.table, self.policy,
            max_lease_fn=max_lease_fn,
            rate_window=self.config.rate_window,
            evict_under_pressure=self.config.evict_under_pressure)
        # An adaptive policy without an occupancy source gets bound to
        # this middleware's own lease-table occupancy.
        from .policy import AdaptiveBudgetPolicy
        if isinstance(self.policy, AdaptiveBudgetPolicy) \
                and self.policy.occupancy is None:
            self.policy.occupancy = self.listening.occupancy
        self.detection = DetectionModule(simulator)
        self.notification = NotificationModule(
            server.socket, self.table, retry=self.config.notify_retry,
            tsig_key=self.config.tsig_key)
        self.detection.add_sink(self.notification.on_change)
        self.observability = self.config.observability
        if self.observability is not None:
            self._install_observability(self.observability)
        self._attached = False

    def _install_observability(self, obs: Observability) -> None:
        """Attach the trace bus and mirror every module's counters.

        Gauges go through :meth:`Observability.bind`, which sums across
        repeated binds — several middlewares (one per authoritative
        server) sharing one bundle aggregate into a single registry.
        """
        self.table.trace = obs.trace
        self.table.length_hist = obs.registry.histogram("lease.length",
                                                        LEASE_BUCKETS)
        self.detection.trace = obs.trace
        self.notification.trace = obs.trace
        if obs.load is not None:
            # Per-server load attribution: the lease table and the
            # notification fan-out record against this server's
            # identity through one bound recorder facet.
            recorder = obs.load.recorder(
                f"{self.server.host.address}:{self.server.socket.port}")
            self.table.load_ledger = recorder
            self.notification.load_ledger = recorder
        self.notification.ack_rtt_hist = obs.registry.histogram(
            "notify.ack_rtt")
        self.notification.window_hist = obs.registry.histogram(
            "notify.consistency_window")
        table, listening = self.table, self.listening
        notify, detection = self.notification.stats, self.detection
        obs.bind("lease.active", lambda: len(table))
        obs.bind("lease.grants", lambda: table.stats.grants)
        obs.bind("lease.renewals", lambda: table.stats.renewals)
        obs.bind("lease.expirations", lambda: table.stats.expirations)
        obs.bind("lease.revocations", lambda: table.stats.revocations)
        obs.bind("lease.peak_active", lambda: table.stats.peak_active)
        obs.bind("listening.queries_seen",
                 lambda: listening.stats.queries_seen)
        obs.bind("listening.dnscup_queries",
                 lambda: listening.stats.dnscup_queries)
        obs.bind("listening.grants", lambda: listening.stats.grants)
        obs.bind("listening.denials", lambda: listening.stats.denials)
        obs.bind("listening.table_full", lambda: listening.stats.table_full)
        obs.bind("detection.changes", lambda: detection.changes_detected)
        obs.bind("notify.sent", lambda: notify.notifications_sent)
        obs.bind("notify.acked", lambda: notify.acks_received)
        obs.bind("notify.failed", lambda: notify.failures)
        obs.bind("notify.in_flight", lambda: notify.in_flight)
        obs.bind("notify.retransmissions", lambda: notify.retransmissions)
        obs.bind("notify.wire_encodes", lambda: notify.wire_encodes)
        obs.bind("notify.no_holders", lambda: notify.no_holders)

    # -- lifecycle -------------------------------------------------------------

    def attach(self) -> "DNScup":
        """Hook the modules into the server; idempotent."""
        if self._attached:
            return self
        self.server.query_hooks.append(self.listening.on_query)
        for zone in self.server.zones:
            if self.server.master_for(zone.origin) is not None:
                self.detection.watch_zone(
                    zone, poll_interval=self.config.zone_poll_interval)
        self._attached = True
        return self

    def detach(self) -> None:
        """Unhook from all event sources."""
        if not self._attached:
            return
        self.server.query_hooks.remove(self.listening.on_query)
        for zone in self.server.zones:
            if zone.origin in self.detection._watched:
                self.detection.unwatch_zone(zone.origin)
        self._attached = False

    # -- track-file persistence ---------------------------------------------------

    def save_track_file(self, path: str) -> int:
        """Persist the lease table; returns leases written."""
        return save_track_file(self.table, path)

    def load_track_file(self, path: str) -> None:
        """Adopt leases from a saved track file (server restart)."""
        loaded = load_track_file(path, capacity=self.table.capacity)
        now = self.server.host.simulator.now
        for lease in loaded:
            if lease.is_valid(now):
                self.table.grant(lease.cache, lease.name, lease.rrtype,
                                 lease.granted_at, lease.length)

    # -- introspection ----------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Headline counters for logs and tests."""
        return {
            "active_leases": float(len(self.table)),
            "grants": float(self.table.stats.grants),
            "renewals": float(self.table.stats.renewals),
            "changes_detected": float(self.detection.changes_detected),
            "notifications_sent": float(self.notification.stats.notifications_sent),
            "acks_received": float(self.notification.stats.acks_received),
            "ack_ratio": self.notification.ack_ratio(),
            # Encode-once fan-out: wire encodes per changed RRset versus
            # notifications addressed from the shared template.
            "wire_encodes": float(self.notification.stats.wire_encodes),
        }


def attach_dnscup(server: AuthoritativeServer,
                  policy: Optional[LeasePolicy] = None,
                  max_lease_fn: Optional[MaxLeaseFn] = None,
                  config: Optional[DNScupConfig] = None) -> DNScup:
    """One-call setup: build and attach DNScup to ``server``."""
    return DNScup(server, policy=policy, max_lease_fn=max_lease_fn,
                  config=config).attach()
