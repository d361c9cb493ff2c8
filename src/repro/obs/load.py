"""The load-attribution plane: who is loading which server, and how hard.

The trace/audit/telemetry stack sees *correctness* — every lease, every
notification, every ack.  This module sees *pressure*: a
:class:`LoadLedger` attributes every query, renewal, CACHE-UPDATE send,
retransmit, and delivered datagram to a ``(server, domain,
message-class)`` key, maintaining

* **exponentially-decayed windowed counters** — each key and each
  server carries a fast window (default 10 s) and each server also a
  slow baseline (default 600 s); a rate is the decayed event mass
  divided by the window, so it tracks the *recent* arrival rate without
  storing any per-event state;
* **fixed-memory log-bucket tails** — one
  :class:`~repro.obs.metrics.Histogram` over the geometric
  :data:`TAIL_BOUNDS` each for the per-server inter-arrival gaps, the
  in-flight notification depth, and the per-arrival instantaneous
  rate: one C ``bisect`` per observation, every quantile within one
  bucket (≤ 9.05 % relative) of the nearest-rank order statistic, and
  exactly mergeable.  Memory is O(servers + keys) and the key space
  itself is bounded by ``domain_cap`` (overflow domains fold into
  ``~other``), so a million-holder storm costs the same memory as a
  quiet afternoon;
* a :class:`StormDetector` that compares each server's fast window
  against its decayed baseline and opens a :class:`StormEpisode` when
  the burst ratio and an absolute rate floor are both exceeded —
  episode start/end records are exactly the admission-control signal
  ROADMAP item 3 needs, and are mirrored onto the trace bus as
  ``load.storm.start`` / ``load.storm.end`` events.

Wiring is **zero-cost when off**, like every other instrument in this
repo: the protocol modules hold ``load_ledger = None`` and guard every
``load_ledger.record(...)`` with a plain ``is not None`` check (enforced
statically by ``repro-lint`` rule DCUP005).  There are two feeds:

* **direct hooks** — ``core/{lease,notification,renegotiation}`` call
  :meth:`LoadLedger.record` (or a per-server :class:`LoadRecorder`
  facet) with precise attribution;
  :class:`repro.core.middleware.DNScup` wires them when its
  :class:`~repro.obs.wiring.Observability` bundle carries a ledger;
* **a trace tap** — :meth:`LoadLedger.on_event` maps protocol trace
  events to attributions, for feeding a ledger from an exported JSONL
  trace (``repro-obs load``) or live as a second
  :meth:`~repro.obs.trace.TraceBus.add_tap` subscriber next to the
  telemetry plane.

Metric and event names are part of the PROTOCOL.md §9.5 contract.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, List, Optional, Set, Tuple

from .metrics import Histogram, Registry
from .trace import (EVENT_FIELDS, LEASE_GRANT, LEASE_RENEW, LOAD_STORM_END,
                    LOAD_STORM_START, NET_DELIVER, NOTIFY_RETRANSMIT,
                    NOTIFY_SEND, RENEGO_SEND, TraceBus, TraceEvent, field_text)

__all__ = [
    "CLASS_DELIVER", "CLASS_NOTIFY", "CLASS_QUERY", "CLASS_RENEWAL",
    "CLASS_RETRANSMIT", "DecayedRate", "LoadKey", "LoadLedger",
    "LoadRecorder", "OVERFLOW_DOMAIN", "StormDetector", "StormEpisode",
    "TAIL_BOUNDS",
]

# -- message classes (the third attribution axis) -----------------------------

#: A lease-granting query reaching the authoritative server.
CLASS_QUERY = "query"
#: A lease renewal (renewed grant or cache-side renegotiation send).
CLASS_RENEWAL = "renewal"
#: A NOTIFY / CACHE-UPDATE first transmission.
CLASS_NOTIFY = "notify"
#: A NOTIFY / CACHE-UPDATE retransmission.
CLASS_RETRANSMIT = "retransmit"
#: A datagram delivered by the transport (per destination endpoint).
CLASS_DELIVER = "deliver"

#: Domains beyond ``domain_cap`` fold into this key (fixed memory).
OVERFLOW_DOMAIN = "~other"

#: Placeholder domain for classes that have none (transport).
NO_DOMAIN = "-"

#: One attribution key: (server, domain, message class).
LoadKey = Tuple[str, str, str]

#: Inclusive upper bounds shared by every per-server tail: an exact
#: ``0.0`` bucket (tie-heavy gap streams are mostly zeros), then ratio
#: 2^(1/8) ≈ 9.05 % from 2^-30 to 2^30.  A quantile estimate and the
#: nearest-rank order statistic it stands for share a bucket, so they
#: differ by at most that ratio; beyond either end the estimate is
#: clamped to the observed min/max.
TAIL_BOUNDS: Tuple[float, ...] = (
    0.0, *(2.0 ** (eighth / 8.0) for eighth in range(-240, 241)))

#: The quantiles a tail summary reports, percent scale.
TAIL_QUANTILES = (50.0, 95.0, 99.0)


class DecayedRate:
    """An exponentially-decayed event counter over window ``tau``.

    Each :meth:`add` first decays the accumulated mass by
    ``exp(-dt / tau)`` and then adds the new event, so the mass is the
    exponentially-weighted count of recent events and ``mass / tau`` is
    an unbiased estimate of the current arrival rate (events/s) for a
    stationary stream.  O(1) state, O(1) update, no event storage.
    """

    __slots__ = ("tau", "mass", "last")

    def __init__(self, tau: float) -> None:
        if tau <= 0.0:
            raise ValueError(f"decay window must be positive: {tau}")
        self.tau = tau
        self.mass = 0.0
        self.last = -math.inf

    def add(self, t: float, amount: float = 1.0) -> float:
        """Decay to ``t``, add ``amount``, return the current rate."""
        dt = t - self.last
        if dt > 0.0:
            # Never fed: dt is +inf and the empty mass stays 0.0 * 0.0.
            self.mass *= math.exp(-dt / self.tau)
            self.last = t
        self.mass += amount
        return self.mass / self.tau

    def rate(self, t: float) -> float:
        """The decayed arrival rate (events/s) as of ``t``."""
        return self.add(t, 0.0)


def _tail_summary(tail: Histogram) -> Dict[str, Optional[float]]:
    """``{"count": ..., "min": ..., "max": ..., "p50": ...}`` of a tail."""
    summary: Dict[str, Optional[float]] = {
        "count": float(tail.count),
        "min": tail.min if tail.count else None,
        "max": tail.max if tail.count else None,
    }
    for quantile in TAIL_QUANTILES:
        summary[f"p{quantile:g}"] = tail.quantile(quantile)
    return summary


@dataclasses.dataclass
class StormEpisode:
    """One renewal-synchronization episode on one server.

    ``end`` is None while the episode is still open; ``peak_rate`` is
    the highest fast-window rate seen inside it and ``baseline`` the
    slow-window rate at the moment it opened — the burst the admission
    controller (ROADMAP item 3) will be asked to shave.
    """

    server: str
    start: float
    baseline: float
    end: Optional[float] = None
    peak_rate: float = 0.0
    events: int = 0

    @property
    def active(self) -> bool:
        return self.end is None

    def as_dict(self) -> Dict[str, object]:
        return {
            "server": self.server,
            "start": self.start,
            "end": self.end,
            "baseline": self.baseline,
            "peak_rate": self.peak_rate,
            "events": self.events,
        }


class StormDetector:
    """Flags renewal-synchronization storms against a decayed baseline.

    A server enters a storm when its fast-window rate exceeds both
    ``burst_ratio`` times its slow baseline *and* the absolute
    ``min_rate`` floor (a quiet server doubling from 0.1/s to 0.2/s is
    not a storm); it leaves when the fast rate falls back under
    ``exit_ratio`` times the baseline.  The hysteresis gap between the
    two ratios keeps one burst from chattering open/closed.  Episode
    boundaries are mirrored onto the optional trace bus as
    ``load.storm.start`` / ``load.storm.end`` (guarded — the detector
    is itself zero-cost-when-off instrumentation).
    """

    def __init__(self, burst_ratio: float = 8.0, exit_ratio: float = 2.0,
                 min_rate: float = 50.0, min_baseline: float = 1.0,
                 trace: Optional[TraceBus] = None) -> None:
        if exit_ratio > burst_ratio:
            raise ValueError(f"exit ratio {exit_ratio} above entry ratio "
                             f"{burst_ratio}: detector would never close")
        self.burst_ratio = burst_ratio
        self.exit_ratio = exit_ratio
        self.min_rate = min_rate
        self.min_baseline = min_baseline
        self.trace = trace
        #: Every episode ever opened, in open order (closed ones keep
        #: their position); the admission-control consumption record.
        self.episodes: List[StormEpisode] = []
        self._active: Dict[str, StormEpisode] = {}

    def observe(self, server: str, t: float, fast_rate: float,
                slow_rate: float) -> None:
        """Fold one arrival's rates; open/close episodes as crossed."""
        baseline = max(slow_rate, self.min_baseline)
        episode = self._active.get(server)
        if episode is None:
            if fast_rate >= self.burst_ratio * baseline \
                    and fast_rate >= self.min_rate:
                episode = StormEpisode(server=server, start=t,
                                       baseline=baseline,
                                       peak_rate=fast_rate, events=1)
                self._active[server] = episode
                self.episodes.append(episode)
                if self.trace is not None:
                    self.trace.emit(LOAD_STORM_START, t, server, fast_rate,
                                    baseline)
            return
        episode.events += 1
        if fast_rate > episode.peak_rate:
            episode.peak_rate = fast_rate
        if fast_rate <= self.exit_ratio * baseline:
            self._end(server, t, fast_rate)

    def _end(self, server: str, t: float, rate: float) -> None:
        episode = self._active.pop(server)
        episode.end = t
        if self.trace is not None:
            self.trace.emit(LOAD_STORM_END, t, server, rate,
                            episode.peak_rate, episode.events,
                            t - episode.start)

    def close_open(self, t: float) -> None:
        """End every still-open episode at ``t`` (end-of-run flush)."""
        for server in sorted(self._active):
            self._end(server, t, 0.0)

    @property
    def active_count(self) -> int:
        return len(self._active)


class _KeyLoad:
    """Per-(server, domain, class) decayed counter + totals."""

    __slots__ = ("count", "rate", "last")

    def __init__(self, tau: float) -> None:
        self.count = 0
        self.rate = DecayedRate(tau)
        self.last = -math.inf


class _ServerLoad:
    """Per-server aggregate: windows, log-bucket tails, class tallies."""

    __slots__ = ("count", "classes", "fast", "slow", "last", "gap_sketch",
                 "depth_sketch", "rate_sketch", "peak_rate")

    def __init__(self, window: float, baseline: float) -> None:
        self.count = 0
        self.classes: Dict[str, int] = {}
        self.fast = DecayedRate(window)
        self.slow = DecayedRate(baseline)
        self.last = -math.inf
        self.gap_sketch: Histogram = Histogram("load.gap", TAIL_BOUNDS)
        self.depth_sketch: Histogram = Histogram("load.depth", TAIL_BOUNDS)
        self.rate_sketch: Histogram = Histogram("load.rate", TAIL_BOUNDS)
        self.peak_rate = 0.0

    def sketch(self, name: str) -> Histogram:
        """The ``rate``, ``gap`` or ``depth`` tail."""
        return {"rate": self.rate_sketch, "gap": self.gap_sketch,
                "depth": self.depth_sketch}[name]


class LoadRecorder:
    """A ledger facet bound to one server's identity.

    The protocol modules owned by a single server (lease table,
    notification module) hold one as their ``load_ledger`` hook: its
    ``record(domain, message_class, t, depth=None)`` *is*
    :meth:`LoadLedger.record` with the server already passed (a partial
    on the instance: no frame for the hop, and call sites keep the
    ``load_ledger.record(...)`` spelling DCUP005 checks the guard of).
    """

    def __init__(self, ledger: "LoadLedger", server: str) -> None:
        self.record = functools.partial(ledger.record, server)


#: Trace event name -> message class, for the tap/offline feed.
_TAP_CLASSES: Dict[str, str] = {
    LEASE_GRANT: CLASS_QUERY,
    LEASE_RENEW: CLASS_RENEWAL,
    RENEGO_SEND: CLASS_RENEWAL,
    NOTIFY_SEND: CLASS_NOTIFY,
    NOTIFY_RETRANSMIT: CLASS_RETRANSMIT,
    NET_DELIVER: CLASS_DELIVER,
}


class LoadLedger:
    """Attributes protocol load to (server, domain, message-class) keys.

    One ledger per run.  Feed it through the direct module hooks (see
    the module docstring), through :meth:`on_event` as a trace tap, or
    both on disjoint planes; memory stays O(servers + capped domains ×
    classes) no matter how many events stream through.
    """

    def __init__(self, window: float = 10.0, baseline: float = 600.0,
                 detector: Optional[StormDetector] = None,
                 trace: Optional[TraceBus] = None,
                 domain_cap: int = 4096,
                 default_server: str = "server") -> None:
        if baseline <= window:
            raise ValueError(f"baseline window {baseline} must exceed the "
                             f"fast window {window}")
        self.window = window
        self.baseline = baseline
        self.detector = (detector if detector is not None
                         else StormDetector(trace=trace))
        self.trace = trace
        self.domain_cap = domain_cap
        self.default_server = default_server
        self.total = 0
        self.last = 0.0
        self.keys: Dict[LoadKey, _KeyLoad] = {}
        self.servers: Dict[str, _ServerLoad] = {}
        self._domains: Set[str] = set()

    # -- the hot path --------------------------------------------------------

    def record(self, server: str, domain: str, message_class: str, t: float,
               depth: Optional[float] = None) -> None:
        """Attribute one message; O(1), fixed memory.

        ``depth`` is an optional concurrent-work sample (e.g. the
        notification module's in-flight count) folded into the server's
        depth sketch.
        """
        key_load = self.keys.get((server, domain, message_class))
        if key_load is None:
            # Only a miss folds the domain (a hit proves it was admitted):
            # past the cap, new domains share the overflow key.
            if domain not in self._domains:
                if len(self._domains) >= self.domain_cap:
                    domain = OVERFLOW_DOMAIN
                else:
                    self._domains.add(domain)
            key = (server, domain, message_class)
            key_load = self.keys.get(key)
            if key_load is None:
                key_load = self.keys[key] = _KeyLoad(self.window)
        key_load.count += 1
        key_load.rate.add(t)
        if t > key_load.last:
            key_load.last = t
        load = self.servers.get(server)
        if load is None:
            load = self.servers[server] = _ServerLoad(
                self.window, self.baseline)
        load.count += 1
        load.classes[message_class] = load.classes.get(message_class, 0) + 1
        if t >= load.last:
            # ``last`` is monotone, like DecayedRate: an out-of-order
            # arrival (tap feed over a merged trace, wall clock) records
            # no gap and must not inflate the next in-order one.
            if load.last != -math.inf:
                load.gap_sketch.observe(t - load.last)
            load.last = t
        fast = load.fast.add(t)
        load.rate_sketch.observe(fast)
        if fast > load.peak_rate:
            load.peak_rate = fast
        if depth is not None:
            load.depth_sketch.observe(depth)
        self.detector.observe(server, t, fast, load.slow.add(t))
        self.total += 1
        if t > self.last:
            self.last = t

    def recorder(self, server: str) -> LoadRecorder:
        """A facet bound to ``server``, for that server's module hooks."""
        return LoadRecorder(self, server)

    # -- the trace-tap feed --------------------------------------------------

    def on_event(self, record: TraceEvent) -> None:
        """Attribute one trace event (install via ``trace.add_tap``).

        Protocol events map to classes per :data:`_TAP_CLASSES`;
        everything else is ignored.  ``net.deliver`` attributes to the
        destination endpoint, every other event to ``default_server``
        (trace records carry no emitting-server identity).
        """
        t, name, fields = record
        message_class = _TAP_CLASSES.get(name)
        if message_class is None:
            return
        deliver = name == NET_DELIVER
        by = fields[EVENT_FIELDS[name].index("dst" if deliver else "name")]
        by = None if by is None else str(field_text(by))
        if deliver:
            self.record(by or self.default_server, NO_DOMAIN,
                        message_class, t)
        else:
            self.record(self.default_server, by or NO_DOMAIN,
                        message_class, t)

    # -- reading -------------------------------------------------------------

    def rate(self, t: Optional[float] = None) -> float:
        """Total decayed arrival rate across servers (events/s)."""
        at = self.last if t is None else t
        return sum(server.fast.rate(at) for server in self.servers.values())

    def peak_rate(self) -> float:
        """The highest fast-window rate any server ever hit."""
        if not self.servers:
            return 0.0
        return max(server.peak_rate for server in self.servers.values())

    def server_quantile(self, server: str, quantile: float,
                        sketch: str = "rate") -> Optional[float]:
        """A server tail quantile (any percent in [0, 100]): ``rate``,
        ``gap``, or ``depth``."""
        load = self.servers.get(server)
        if load is None:
            return None
        return load.sketch(sketch).quantile(quantile)

    def top(self, n: int = 10) -> List[Dict[str, object]]:
        """The ``n`` hottest keys by total count (ties: key order)."""
        ranked = sorted(self.keys.items(),
                        key=lambda item: (-item[1].count, item[0]))
        return [{"server": server, "domain": domain, "class": message_class,
                 "count": load.count, "rate": load.rate.rate(self.last),
                 "last": load.last}
                for (server, domain, message_class), load in ranked[:n]]

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready view: totals, per-server loads, episodes."""
        servers: Dict[str, object] = {}
        for name in sorted(self.servers):
            load = self.servers[name]
            servers[name] = {
                "count": load.count,
                "classes": dict(sorted(load.classes.items())),
                "rate": load.fast.rate(self.last),
                "baseline": load.slow.rate(self.last),
                "peak_rate": load.peak_rate,
                "gap": _tail_summary(load.gap_sketch),
                "depth": _tail_summary(load.depth_sketch),
                "rate_quantiles": _tail_summary(load.rate_sketch),
            }
        return {
            "total": self.total,
            "last": self.last,
            "window": self.window,
            "baseline_window": self.baseline,
            "servers": servers,
            "keys": len(self.keys),
            "domains": len(self._domains),
            "storms": {
                "active": self.detector.active_count,
                "episodes": [episode.as_dict()
                             for episode in self.detector.episodes],
            },
        }

    # -- telemetry exposure --------------------------------------------------

    def bind_registry(self, registry: Registry) -> None:
        """Register the rolling ``load.*`` gauges (PROTOCOL §9.5).

        Callable-backed gauges read the ledger at snapshot time, so the
        telemetry plane's periodic exposition shows live load with zero
        extra work on the record path.  Empty sketches read 0.0 (the
        registry's strict JSON export refuses non-finite values).
        """
        def quantile_reader(sketch_name: str, quantile: float
                            ) -> float:
            best = 0.0
            for server in self.servers.values():
                value = server.sketch(sketch_name).quantile(quantile)
                if value is not None and value > best:
                    best = value
            return best

        registry.gauge("load.events", fn=lambda: float(self.total))
        registry.gauge("load.keys", fn=lambda: float(len(self.keys)))
        registry.gauge("load.servers", fn=lambda: float(len(self.servers)))
        registry.gauge("load.rate", fn=self.rate)
        registry.gauge("load.peak_rate", fn=self.peak_rate)
        registry.gauge("load.rate_p99",
                       fn=lambda: quantile_reader("rate", 99.0))
        registry.gauge("load.gap_p50",
                       fn=lambda: quantile_reader("gap", 50.0))
        registry.gauge("load.gap_p99",
                       fn=lambda: quantile_reader("gap", 99.0))
        registry.gauge("load.depth_p99",
                       fn=lambda: quantile_reader("depth", 99.0))
        registry.gauge("load.storm.active",
                       fn=lambda: float(self.detector.active_count))
        registry.gauge("load.storm.episodes",
                       fn=lambda: float(len(self.detector.episodes)))
