"""The trace bus: sim-clock-aware structured event recording.

Every interesting protocol moment — a lease granted, a change detected,
a CACHE-UPDATE retransmitted, a datagram dropped — can be emitted as one
:class:`TraceEvent` onto a process-local :class:`TraceBus`.  A record is
``(t, name, fields)``, ``fields`` a *positional* tuple of *unrendered*
values in :data:`EVENT_FIELDS` order — endpoints as the ``(addr, port)``
tuples they already are, names as ``Name``, types as ``RRType`` — and
``emit`` only stamps the virtual clock, appends to a bounded ring and
calls the tap.  Text exists in two places: :meth:`TraceBus.export_jsonl`
renders each value through :func:`field_text`, and
:func:`load_trace_events` builds the same positional shape back from
each JSON object, so a live ring and a loaded file are one shape with
one code path for every reader.

Tracing is **off by default** and zero-cost when off: instrumented
components hold ``trace = None`` and guard every emission with a plain
``is not None`` check, so not even the argument tuple is built unless a
bus is attached.  Names and fields are a stable contract (PROTOCOL.md §9).
"""

from __future__ import annotations

import collections
import contextlib
import enum
import json
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    TextIO,
    Tuple,
    Union,
)

# -- the event-name contract (PROTOCOL.md §9) --------------------------------

#: Lease lifecycle (emitted by :class:`repro.core.lease.LeaseTable`).
LEASE_GRANT = "lease.grant"
LEASE_RENEW = "lease.renew"
LEASE_EXPIRE = "lease.expire"
LEASE_REVOKE = "lease.revoke"

#: Change detection (emitted by :class:`repro.core.detection.DetectionModule`).
CHANGE_DETECTED = "change.detected"
#: All notifications for one change resolved (acked or timed out).
CHANGE_SETTLED = "change.settled"

#: CACHE-UPDATE fan-out (emitted by
#: :class:`repro.core.notification.NotificationModule`).
NOTIFY_SEND = "notify.send"
NOTIFY_RETRANSMIT = "notify.retransmit"
NOTIFY_ACK = "notify.ack"
NOTIFY_TIMEOUT = "notify.timeout"

#: Network transport (emitted by :class:`repro.net.network.Network`).
NET_DELIVER = "net.deliver"
NET_DROP = "net.drop"
NET_DUPLICATE = "net.duplicate"
NET_UNREACHABLE = "net.unreachable"

#: Lease renegotiation (emitted by
#: :class:`repro.core.renegotiation.RenegotiationAgent`).
RENEGO_SEND = "renego.send"
RENEGO_REFRESH = "renego.refresh"
RENEGO_LOST = "renego.lost"
RENEGO_FAIL = "renego.fail"

#: DNS-Push comparator (emitted by :class:`repro.server.push.PushService`).
PUSH_SEND = "push.send"
PUSH_KEEPALIVE = "push.keepalive"

#: Load-attribution plane (emitted by
#: :class:`repro.obs.load.StormDetector`): a renewal-synchronization
#: episode opened / closed against the decayed baseline (PROTOCOL §9.5).
LOAD_STORM_START = "load.storm.start"
LOAD_STORM_END = "load.storm.end"

#: Synthetic record written by ``export_jsonl(..., meta=True)`` carrying
#: the bus's own bookkeeping (emitted/dropped/cleared/capacity) — not an
#: instrumentation event, but accepted by strict loading.
TRACE_META = "trace.meta"

#: PROTOCOL.md §9's field column as data: event name -> the names of
#: its fields, in the order ``emit`` takes them and a record holds them.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    LEASE_GRANT: ("cache", "name", "rrtype", "length"),
    LEASE_RENEW: ("cache", "name", "rrtype", "length"),
    LEASE_EXPIRE: ("cache", "name", "rrtype"),
    LEASE_REVOKE: ("cache", "name", "rrtype"),
    CHANGE_DETECTED: ("seq", "zone", "name", "rrtype", "kind"),
    CHANGE_SETTLED: ("seq", "window", "acked", "failed"),
    NOTIFY_SEND: ("seq", "cache", "name", "rrtype", "id"),
    NOTIFY_RETRANSMIT: ("seq", "cache", "name", "rrtype", "id", "attempt"),
    NOTIFY_ACK: ("seq", "cache", "name", "rrtype", "rtt"),
    NOTIFY_TIMEOUT: ("seq", "cache", "name", "rrtype", "reason"),
    NET_DELIVER: ("src", "dst", "size"),
    NET_DROP: ("src", "dst", "size"),
    NET_DUPLICATE: ("src", "dst", "size"),
    NET_UNREACHABLE: ("src", "dst", "size"),
    RENEGO_SEND: ("name", "rrtype", "rate", "id"),
    RENEGO_REFRESH: ("name", "rrtype", "llt"),
    RENEGO_LOST: ("name", "rrtype"),
    RENEGO_FAIL: ("name", "rrtype", "reason"),
    PUSH_SEND: ("subscriber", "name", "rrtype"),
    PUSH_KEEPALIVE: ("count",),
    LOAD_STORM_START: ("server", "rate", "baseline"),
    LOAD_STORM_END: ("server", "rate", "peak", "events", "duration"),
    TRACE_META: ("capacity", "emitted", "retained", "dropped", "cleared"),
}

#: Every event name the instrumentation can emit, for validation.
EVENT_NAMES = frozenset(EVENT_FIELDS) - {TRACE_META}

#: Per event, ``(field name, position)`` in the export's sorted-key order.
_EXPORT_ORDER = {name: tuple(sorted((field, at) for at, field in
                                    enumerate(fields)))
                 for name, fields in EVENT_FIELDS.items()}

#: One recorded event: (time, event name, fields).  ``fields`` is the
#: emit call's own argument tuple (positional per :data:`EVENT_FIELDS`,
#: unrendered); off-contract and loaded: its sorted (key, value) pairs.
TraceEvent = Tuple[float, str, Tuple[object, ...]]

#: A clock source: a zero-arg callable returning seconds of virtual time.
Clock = Callable[[], float]


@contextlib.contextmanager
def opened(target: Union[str, TextIO], mode: str = "r") -> Iterator[TextIO]:
    """``target`` as a stream: a path is opened here and closed on
    exit, a stream is passed through and left open."""
    if isinstance(target, str):
        with open(target, mode) as stream:
            yield stream
    else:
        yield target


class TraceBus:
    """Ring-buffered, sim-clock-stamped structured event recorder.

    ``clock`` is either a :class:`~repro.net.simulator.Simulator` (its
    ``now`` is read per event) or any zero-arg callable; without one,
    emitters must pass an explicit ``t``.  ``capacity`` bounds memory:
    the oldest events fall off the ring first.
    """

    def __init__(self, clock: Optional[Union[Clock, object]] = None,
                 capacity: int = 1 << 20) -> None:
        if clock is not None and not callable(clock):
            simulator = clock
            clock = lambda: simulator.now  # noqa: E731
        self._clock: Optional[Clock] = clock
        self.capacity = capacity
        self.events: Deque[TraceEvent] = collections.deque(maxlen=capacity)
        #: Events discarded by an explicit :meth:`clear` (deliberate).
        self.cleared = 0
        #: Total events emitted, including any that fell off the ring.
        self.emitted = 0
        #: Streaming hook: called with each record tuple right after it
        #: is appended (clock already stamped).  The live telemetry
        #: plane (:mod:`repro.net.telemetry`) and the load ledger
        #: (:mod:`repro.obs.load`) wire themselves here via
        #: :meth:`add_tap`; ``None`` (the default) costs one pointer
        #: check per emit and nothing else.  With one subscriber ``tap``
        #: is that callable itself; with several it is a fan-out shim —
        #: ``emit`` never pays more than the single pointer check to
        #: find out.
        self.tap: Optional[Callable[[TraceEvent], None]] = None
        self._taps: List[Callable[[TraceEvent], None]] = []

    def add_tap(self, fn: Callable[[TraceEvent], None]) -> None:
        """Subscribe ``fn`` to every future emission.

        Taps fire in installation order, after the record is appended
        to the ring.  A tap installed by legacy direct assignment to
        :attr:`tap` is adopted as the first subscriber.  Installing the
        same callable twice raises :class:`ValueError`.
        """
        if self.tap is not None and not self._taps:
            self._taps.append(self.tap)  # adopt a legacy direct assignment
        if fn in self._taps:
            raise ValueError("tap already installed on this trace bus")
        self._taps.append(fn)
        self._rebind()

    def remove_tap(self, fn: Callable[[TraceEvent], None]) -> None:
        """Unsubscribe ``fn``; raises :class:`ValueError` if absent."""
        if self.tap is not None and not self._taps:
            self._taps.append(self.tap)
        self._taps.remove(fn)
        self._rebind()

    def _rebind(self) -> None:
        """Point :attr:`tap` at None / the lone tap / a fan-out shim."""
        if not self._taps:
            self.tap = None
        elif len(self._taps) == 1:
            self.tap = self._taps[0]
        else:
            taps = tuple(self._taps)

            def fan_out(record: TraceEvent) -> None:
                for tap in taps:
                    tap(record)

            self.tap = fan_out

    def emit(self, event: str, t: Optional[float] = None,
             *fields: object) -> None:
        """Record one event, stamped ``t`` or (None) the bus clock's
        now; ``fields`` in :data:`EVENT_FIELDS` order, unrendered
        (``repro-lint`` DCUP003 checks the count at every call site)."""
        if t is None:
            t = self._clock() if self._clock is not None else 0.0
        self.emitted += 1
        record: TraceEvent = (t, event, fields)
        self.events.append(record)
        if self.tap is not None:
            self.tap(record)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def dropped(self) -> int:
        """Events that fell off the ring (overflow losses only).

        An explicit :meth:`clear` is a deliberate discard and counts
        under :attr:`cleared` instead — a nonzero ``dropped`` always
        means the trace is an incomplete record of the run.
        """
        return self.emitted - self.cleared - len(self.events)

    def stats(self) -> Dict[str, int]:
        """Bus bookkeeping: capacity/emitted/retained/dropped/cleared."""
        return {
            "capacity": self.capacity,
            "emitted": self.emitted,
            "retained": len(self.events),
            "dropped": self.dropped,
            "cleared": self.cleared,
        }

    def counts(self) -> Dict[str, int]:
        """Event-name -> occurrences currently retained."""
        tally: Dict[str, int] = {}
        for _t, name, _fields in self.events:
            tally[name] = tally.get(name, 0) + 1
        return dict(sorted(tally.items()))

    def select(self, *names: str) -> List[TraceEvent]:
        """Retained events whose name is in ``names``, in time order."""
        wanted = frozenset(names)
        return [ev for ev in self.events if ev[1] in wanted]

    def clear(self) -> None:
        """Discard every retained event (counters keep running).

        Deliberate discards accrue to :attr:`cleared`, never to
        :attr:`dropped` — the latter is reserved for ring overflow.
        """
        self.cleared += len(self.events)
        self.events.clear()

    # -- JSONL export/import -------------------------------------------------

    def export_jsonl(self, target: Union[str, TextIO],
                     meta: bool = False) -> int:
        """Write retained events as JSON lines; returns lines written.

        Each line is ``{"t": ..., "event": ..., <fields>}`` with ``t``
        and ``event`` first and the remaining keys in sorted order, so
        identical runs export byte-identical traces.  ``meta=True``
        prepends one :data:`TRACE_META` record carrying :meth:`stats`,
        so downstream tools can tell a complete trace from a truncated
        one (``repro-obs summarize`` reports it).
        """
        records: List[TraceEvent] = list(self.events)
        if meta:
            records.insert(0, (0.0, TRACE_META,
                               pack_fields(TRACE_META, self.stats())))
        with opened(target, "w") as stream:
            for event in records:
                record = {"t": event[0], "event": event[1],
                          **fields_dict(event)}
                stream.write(json.dumps(record, separators=(",", ":"))
                             + "\n")
        return len(records)


def field_text(value: object) -> object:
    """One field value as the export spells it: an endpoint tuple as
    ``addr:port``, a ``Name`` as its text, an ``RRType`` as its
    mnemonic; JSON scalars — all a loaded trace holds — unchanged."""
    if isinstance(value, tuple):
        return f"{value[0]}:{value[1]}"
    if isinstance(value, enum.Enum):
        return value.name
    to_text = getattr(value, "to_text", None)
    return value if to_text is None else to_text()


def fields_dict(event: TraceEvent) -> Dict[str, object]:
    """The dict view of a record's fields: rendered, keys sorted."""
    _t, name, fields = event
    order = _EXPORT_ORDER.get(name)
    if order is None:  # off-contract: already sorted (key, value) pairs
        return dict(fields)  # type: ignore[arg-type]
    return {field: field_text(fields[at]) for field, at in order}


def pack_fields(name: str, obj: Dict[str, object]) -> Tuple[object, ...]:
    """A field dict in the record's positional shape: an absent key is
    a None slot; a name outside the contract keeps its sorted pairs."""
    schema = EVENT_FIELDS.get(name)
    if schema is None:
        return tuple(sorted(obj.items()))
    return tuple(map(obj.get, schema))


def parse_trace_line(line: str, lineno: int,
                     strict: bool = False) -> TraceEvent:
    """One JSONL line as a :data:`TraceEvent`; anything malformed — not
    JSON, not an object, no usable ``t`` / ``event``, or (``strict``) a
    name outside the contract — is a ``ValueError("trace line N: …")``."""
    try:
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise TypeError("not a JSON object")
        t = float(obj.pop("t"))
        name = str(obj.pop("event"))
    except KeyError as exc:
        raise ValueError(f"trace line {lineno}: missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trace line {lineno}: {exc}") from None
    if strict and name not in EVENT_FIELDS:
        raise ValueError(
            f"trace line {lineno}: unknown event name {name!r}")
    return (t, name, pack_fields(name, obj))


def load_trace_events(source: Union[str, TextIO],
                      strict: bool = False) -> List[TraceEvent]:
    """Read a JSONL trace back into :data:`TraceEvent` tuples.

    ``strict=True`` validates every event name against the
    :data:`EVENT_NAMES` contract (plus :data:`TRACE_META`) and raises
    :class:`ValueError` on the first unknown name — the mode for
    rejecting hand-edited or version-skewed traces.  The default mode
    loads anything well-formed; callers can diff names against
    :data:`EVENT_NAMES` themselves to warn instead (``repro-obs`` does).
    """
    with opened(source) as stream:
        return [parse_trace_line(line, lineno, strict)
                for lineno, line in enumerate(stream, start=1)
                if line.strip()]
