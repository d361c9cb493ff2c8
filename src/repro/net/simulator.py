"""A deterministic discrete-event simulator.

Everything time-dependent in the reproduction — UDP delivery, lease
expiry, TTL decay, retransmission timers, probing schedules — runs on one
:class:`Simulator`.  Events fire in (time, schedule-order) order, so runs
are exactly reproducible for a given seed; there is no wall-clock anywhere
in the simulation path.

Tie-breaking is an **explicit monotonic sequence number** stamped on
every :class:`EventHandle` at schedule time (never object identity or
hash, which vary across processes): equal-timestamp events fire in
schedule order on any machine, in any process — the property the
sharded simulation relies on for byte-stable merges.

The queue is one binary heap of ``(time, seq, handle)`` entries, popped
and fired inline by :meth:`Simulator.run` / :meth:`Simulator.run_until`.
A cancelled event stays in the heap as a tombstone until it is popped
past, and the heap is rebuilt without its tombstones as soon as they
outnumber the live entries — so the schedule/cancel churn of retry and
renewal timers, which are almost always cancelled, cannot grow it
beyond about twice the live events.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

#: Tombstones tolerated beyond the live count before the heap is
#: rebuilt, so a near-empty queue is not re-heapified on every cancel.
_COMPACT_SLACK = 64


class EventHandle:
    """A cancellable reference to a scheduled event.

    *Daemon* events (periodic timers, housekeeping) never keep the
    simulation alive: :meth:`Simulator.run` stops once only daemon
    events remain, the way daemon threads don't block process exit.

    ``seq`` is the schedule-time monotonic sequence number; the queue
    orders events by ``(time, seq)`` and nothing else.
    """

    __slots__ = ("time", "seq", "daemon", "_callback", "_cancelled",
                 "_simulator")

    def __init__(self, time: float, seq: int, callback: Callable[[], None],
                 simulator: "Simulator", daemon: bool = False):
        self.time = time
        self.seq = seq
        self.daemon = daemon
        self._callback = callback
        self._cancelled = False
        #: The owning simulator while the event is queued; None once it
        #: has fired or been cancelled, which makes a late ``cancel()``
        #: (a periodic timer stopped from inside its own tick) a no-op.
        self._simulator: Optional[Simulator] = simulator

    def cancel(self) -> None:
        """Prevent the event from firing; cancelling twice is harmless."""
        simulator = self._simulator
        if simulator is None:
            return
        self._simulator = None
        self._cancelled = True
        self._callback = _noop
        simulator._live_pending -= 1
        if not self.daemon:
            simulator._nondaemon_pending -= 1
        heap = simulator._heap
        if len(heap) > 2 * simulator._live_pending + _COMPACT_SLACK:
            # In place: a running loop holds a reference to the list.
            heap[:] = [entry for entry in heap if not entry[2]._cancelled]
            heapify(heap)

    @property
    def cancelled(self) -> bool:
        """True once cancelled."""
        return self._cancelled


def _noop() -> None:
    return None


class SimulationError(RuntimeError):
    """Raised on simulator misuse (scheduling into the past, etc.)."""


class Simulator:
    """Event loop with virtual time in seconds."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: (time, seq, handle), cancelled entries included until popped
        #: past or compacted away by :meth:`EventHandle.cancel`.
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self.events_processed = 0
        self._nondaemon_pending = 0
        self._live_pending = 0
        #: Observability hook: called with the event time after each
        #: fired event.  None (the default) costs one comparison per
        #: step; set by :meth:`repro.obs.Observability.observe_simulator`.
        self.observer: Optional[Callable[[float], None]] = None

    @property
    def now(self) -> float:
        """Current virtual time, seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], None],
                    daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} < now {self._now}")
        seq = next(self._sequence)
        handle = EventHandle(time, seq, callback, self, daemon)
        self._live_pending += 1
        if not daemon:
            self._nondaemon_pending += 1
        heappush(self._heap, (time, seq, handle))
        return handle

    def schedule(self, delay: float, callback: Callable[[], None],
                 daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, callback, daemon)

    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at the current time, after pending same-time events."""
        return self.schedule(0.0, callback)

    # -- execution --------------------------------------------------------------

    def _fire(self, until: float, max_events: Optional[int],
              daemons_alone: bool) -> int:
        """Pop and fire events in (time, seq) order; returns how many.

        Stops at the first live event later than ``until``, after
        ``max_events``, when the heap is empty, or — unless
        ``daemons_alone`` — once only daemon events are left.
        """
        heap = self._heap
        fired = 0
        while heap and (daemons_alone or self._nondaemon_pending > 0):
            time, _seq, handle = heap[0]
            if handle._cancelled:
                heappop(heap)
                continue
            if time > until:
                break
            heappop(heap)
            self._now = time
            self.events_processed += 1
            self._live_pending -= 1
            if not handle.daemon:
                self._nondaemon_pending -= 1
            handle._simulator = None
            handle._callback()
            if self.observer is not None:
                self.observer(time)
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        if not self._live_pending:
            # Only tombstones are left: a drained queue keeps no handle.
            heap.clear()
        return fired

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        return self._fire(math.inf, 1, True) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until no *non-daemon* work remains (or ``max_events``).

        Daemon events (periodic timers) that precede pending non-daemon
        events still fire in time order; once only daemon events are
        left the run stops and leaves them queued — they would otherwise
        keep a simulation alive forever.
        """
        return self._fire(math.inf, max_events, False)

    def run_until(self, time: float) -> int:
        """Fire all events with timestamp <= ``time``, then advance to it."""
        if time < self._now:
            raise SimulationError(f"cannot run backwards to {time}")
        fired = self._fire(time, None, True)
        self._now = time
        return fired

    def run_for(self, duration: float) -> int:
        """Advance virtual time by ``duration``, firing due events."""
        return self.run_until(self._now + duration)

    @property
    def pending(self) -> int:
        """Scheduled events that have not fired or been cancelled.

        O(1): a live-event counter maintained on schedule/cancel/fire,
        not a scan of the queue (cancelled entries may linger there
        until popped past or compacted).
        """
        return self._live_pending

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.3f}, pending={self.pending})"
