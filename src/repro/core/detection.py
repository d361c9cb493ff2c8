"""The detection module: notices DNS record changes (paper Figure 6).

Two detection paths mirror the prototype:

* **event-driven** — dynamic updates and API mutations commit through
  :class:`~repro.zone.zone.Zone`, whose change listeners fire
  synchronously; this is the path RFC 2136 UPDATE messages take;
* **polling** — zones edited out-of-band (an operator rewriting a zone
  file) are diffed against a snapshot on a timer, the way the prototype
  watches the zone database file.

Either way the output is uniform: a stream of :class:`RecordChange`
events handed to the registered sinks (the notification module).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..dnslib import Name, RRSet, RRType
from ..net import ClockLike, PeriodicTimer
from ..zone import Zone, ZoneChange, diff_snapshots


@dataclasses.dataclass(frozen=True)
class RecordChange:
    """One detected RRset change on an authoritative server."""

    zone_origin: Name
    name: Name
    rrtype: RRType
    old: Optional[RRSet]
    new: Optional[RRSet]
    detected_at: float
    #: Correlation id assigned by the detection module (1-based, unique
    #: per module); 0 means "not tracked" (hand-built changes in tests).
    #: Trace events downstream carry this seq so one change's fan-out is
    #: reconstructible from the trace alone.
    seq: int = 0

    @property
    def is_deletion(self) -> bool:
        """True when the record was removed."""
        return self.new is None

    @property
    def is_addition(self) -> bool:
        """True when the record is new."""
        return self.old is None

    @property
    def kind(self) -> str:
        """``add`` / ``delete`` / ``update``, for traces and logs."""
        if self.old is None:
            return "add"
        if self.new is None:
            return "delete"
        return "update"


ChangeSink = Callable[[RecordChange], None]


class DetectionModule:
    """Watches zones and fans record changes out to sinks."""

    def __init__(self, simulator: ClockLike):
        self.simulator = simulator
        self._sinks: List[ChangeSink] = []
        self._watched: Dict[Name, Zone] = {}
        self._snapshots: Dict[Name, dict] = {}
        self._poll_timers: Dict[Name, PeriodicTimer] = {}
        self.changes_detected = 0
        #: Record types excluded from notification; SOA serial churn is
        #: replication bookkeeping, not a DN2IP mapping change.
        self.ignored_types = {RRType.SOA}
        #: Optional :class:`repro.obs.TraceBus` receiving
        #: ``change.detected`` events; attached by the middleware.
        self.trace = None

    # -- wiring ---------------------------------------------------------------

    def add_sink(self, sink: ChangeSink) -> None:
        """Register a consumer of detected changes."""
        self._sinks.append(sink)

    def watch_zone(self, zone: Zone, poll_interval: Optional[float] = None) -> None:
        """Subscribe to ``zone``'s commits; optionally poll for external edits."""
        if zone.origin in self._watched:
            raise ValueError(f"already watching {zone.origin}")
        self._watched[zone.origin] = zone
        zone.add_change_listener(self._on_zone_commit)
        if poll_interval is not None:
            self._snapshots[zone.origin] = zone.snapshot()
            self._poll_timers[zone.origin] = PeriodicTimer(
                self.simulator, poll_interval,
                lambda origin=zone.origin: self._poll(origin))

    def unwatch_zone(self, origin: Name) -> None:
        """Stop watching ``origin`` (event and polling paths)."""
        zone = self._watched.pop(origin, None)
        if zone is not None:
            zone.remove_change_listener(self._on_zone_commit)
        timer = self._poll_timers.pop(origin, None)
        if timer is not None:
            timer.stop()
        self._snapshots.pop(origin, None)

    # -- event-driven path ---------------------------------------------------------

    def _on_zone_commit(self, zone: Zone, changes: List[ZoneChange]) -> None:
        for name, rrtype, old, new in changes:
            self._emit(zone.origin, name, rrtype, old, new)
        if zone.origin in self._snapshots:
            # Keep the polling baseline current so the same change is not
            # re-detected by the next poll.
            self._snapshots[zone.origin] = zone.snapshot()

    # -- polling path -----------------------------------------------------------------

    def _poll(self, origin: Name) -> None:
        zone = self._watched.get(origin)
        if zone is None:
            return
        baseline = self._snapshots.get(origin, {})
        current = zone.snapshot()
        for name, rrtype, old, new in diff_snapshots(baseline, current):
            self._emit(origin, name, rrtype, old, new)
        self._snapshots[origin] = current

    # -- emission -----------------------------------------------------------------------

    def _emit(self, origin: Name, name: Name, rrtype: RRType,
              old: Optional[RRSet], new: Optional[RRSet]) -> None:
        if rrtype in self.ignored_types:
            return
        self.changes_detected += 1
        change = RecordChange(origin, name, rrtype, old, new,
                              self.simulator.now,
                              seq=self.changes_detected)
        if self.trace is not None:
            self.trace.emit("change.detected", change.detected_at,
                            change.seq, origin, name, rrtype, change.kind)
        for sink in list(self._sinks):
            sink(change)
