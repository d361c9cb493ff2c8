"""Causal spans: reconstructing protocol stories from raw trace events.

A flat JSONL trace records *moments*; the protocol's guarantees are
about *stories* — one DN2IP change fanning out to every lease holder and
settling, one lease living from grant through renewals to expiry.  This
module rebuilds those stories:

* :class:`ChangeSpan` — one detected change and its notification tree:
  ``change.detected`` → per-recipient ``notify.send`` (plus
  ``notify.retransmit``) → ``notify.ack`` / ``notify.timeout`` →
  ``change.settled``, correlated by the detection module's ``seq``;
* :class:`LeaseSpan` — one lease lifecycle on a (cache, name, rrtype)
  pair: ``lease.grant`` → ``lease.renew``* → ``lease.expire`` /
  ``lease.revoke`` (or still open at end of trace).

Matching is *positional*: events are consumed in trace order, so an
acknowledgement only ever resolves a send that precedes it.  Events
that tell no coherent story — an ack with no outstanding send, an
expiry with no live lease — land in :attr:`SpanSet.orphans`.

Spans are what reports render (``repro-obs spans|report``) and what the
auditor's trace/wire cross-check reads, so a record's unrendered fields
become text here (:func:`~repro.obs.trace.field_text`): matching runs
on the raw values, span attributes hold strings.  The verdict itself
comes from :class:`repro.obs.audit.IncrementalAuditor`, which holds only
open spans and classifies the same orphans as causality violations.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .trace import (
    CHANGE_DETECTED,
    CHANGE_SETTLED,
    LEASE_EXPIRE,
    LEASE_GRANT,
    LEASE_RENEW,
    LEASE_REVOKE,
    NOTIFY_ACK,
    NOTIFY_RETRANSMIT,
    NOTIFY_SEND,
    NOTIFY_TIMEOUT,
    TraceEvent,
    field_text,
)


@dataclasses.dataclass
class NotificationLeg:
    """One recipient's branch of a change's notification tree."""

    seq: int
    cache: str
    name: Optional[str]
    rrtype: Optional[str]
    msg_id: Optional[int]
    send_index: int
    send_t: float
    #: ``(event index, t, attempt)`` per retry-timer firing.
    retransmits: List[Tuple[int, float, int]] = dataclasses.field(
        default_factory=list)
    ack_index: Optional[int] = None
    ack_t: Optional[float] = None
    rtt: Optional[float] = None
    timeout_index: Optional[int] = None
    timeout_t: Optional[float] = None
    timeout_reason: Optional[str] = None

    @property
    def acked(self) -> bool:
        """True when this leg resolved with an acknowledgement."""
        return self.ack_index is not None

    @property
    def resolved(self) -> bool:
        """True when this leg reached an ack or a timeout."""
        return self.ack_index is not None or self.timeout_index is not None

    @property
    def attempts(self) -> int:
        """Datagram transmissions: the send plus every retransmit."""
        return 1 + len(self.retransmits)


@dataclasses.dataclass
class ChangeSpan:
    """One detected change and every notification it caused."""

    seq: int
    detected_index: Optional[int] = None
    detected_t: Optional[float] = None
    zone: Optional[str] = None
    name: Optional[str] = None
    rrtype: Optional[str] = None
    kind: Optional[str] = None
    legs: List[NotificationLeg] = dataclasses.field(default_factory=list)
    settled_index: Optional[int] = None
    settled_t: Optional[float] = None
    #: The ``window`` field carried by ``change.settled`` (None when no
    #: leg acked — the change fell back to TTL expiry).
    settled_window: Optional[float] = None
    settled_acked: Optional[int] = None
    settled_failed: Optional[int] = None

    @property
    def settled(self) -> bool:
        """True once a ``change.settled`` event was seen for this seq."""
        return self.settled_index is not None

    def acked_legs(self) -> List[NotificationLeg]:
        """The legs that resolved with an acknowledgement."""
        return [leg for leg in self.legs if leg.acked]

    def window(self) -> Optional[float]:
        """The consistency window recomputed from the legs.

        Detection time to the *last* acknowledgement — when every
        reachable lease holder is consistent again.  None when the
        detection event is missing or no leg acked.
        """
        if self.detected_t is None:
            return None
        ack_times = [leg.ack_t for leg in self.legs if leg.ack_t is not None]
        return max(ack_times) - self.detected_t if ack_times else None


@dataclasses.dataclass
class LeaseSpan:
    """One lease lifecycle on a (cache, name, rrtype) pair."""

    cache: str
    name: str
    rrtype: str
    grant_index: int
    granted_at: float
    length: float
    #: ``(event index, t, new length)`` per renewal; each renewal
    #: restarts the term from its own timestamp.
    renewals: List[Tuple[int, float, float]] = dataclasses.field(
        default_factory=list)
    end_index: Optional[int] = None
    end_t: Optional[float] = None
    end_kind: Optional[str] = None  # "expire" | "revoke" | None (open)

    @property
    def open(self) -> bool:
        """True while no expire/revoke event has closed this span."""
        return self.end_index is None


@dataclasses.dataclass
class SpanSet:
    """Every story one trace tells, plus the events telling none."""

    changes: List[ChangeSpan]
    leases: List[LeaseSpan]
    #: Untracked (seq 0) notification legs — hand-fed changes with no
    #: detection record; matched FIFO per (cache, name, rrtype).
    untracked: List[NotificationLeg]
    #: ``(event index, reason)`` for events that matched no span.
    orphans: List[Tuple[int, str]]

    def change_for(self, seq: int) -> Optional[ChangeSpan]:
        """The change span with correlation id ``seq``, if any."""
        for span in self.changes:
            if span.seq == seq:
                return span
        return None


def _leg_key(fields: Tuple[object, ...]) -> Tuple[object, ...]:
    """The matching identity of a ``notify.*`` record's leg (all four
    open with seq, cache, name, rrtype): tracked legs match on (seq,
    cache), untracked (seq 0 or absent) legs on (cache, name, rrtype).
    Shared with the auditor (:mod:`repro.obs.audit`), which must pair
    events with legs exactly as :func:`build_spans` does."""
    return fields[:2] if fields[0] else (0,) + fields[1:4]


def _closed(span: Optional[ChangeSpan]) -> bool:
    """True once ``span`` settled with every leg resolved.

    Its story is over — the notification module settles a change only
    after all its legs resolved, and a new change to the same record
    gets a fresh seq — so a later ``change.detected`` or ``notify.send``
    carrying that seq belongs to no span.  The auditor retires the span
    at exactly this point (``IncrementalAuditor._maybe_retire``): the
    legs the wire check reads here must be the legs it audited.
    """
    return (span is not None and span.settled_index is not None
            and all(leg.resolved for leg in span.legs))


def build_spans(events: Sequence[TraceEvent]) -> SpanSet:
    """Reconstruct change and lease spans from one event stream.

    ``events`` must be a complete trace in emission order (the order
    :meth:`repro.obs.TraceBus.export_jsonl` preserves); a ring-truncated
    trace reconstructs, but decapitated spans surface as orphans.
    """
    changes: List[ChangeSpan] = []
    by_seq: Dict[int, ChangeSpan] = {}
    leases: List[LeaseSpan] = []
    # A lease span's identity is (cache endpoint, owner name, rrtype) —
    # the (domain, nameserver) pair of the paper, typed per record: the
    # first three fields of every ``lease.*`` record, opaque hashables.
    open_leases: Dict[Tuple[object, ...], LeaseSpan] = {}
    untracked: List[NotificationLeg] = []
    orphans: List[Tuple[int, str]] = []

    def span_for(seq: int) -> ChangeSpan:
        span = by_seq.get(seq)
        if span is None:
            span = by_seq[seq] = ChangeSpan(seq=seq)
            changes.append(span)
        return span

    # Unresolved legs indexed by their matching identity (_leg_key), in
    # send order.  Resolved legs are discarded lazily from the front,
    # so matching stays the oldest-unresolved-first scan of the naive
    # implementation at amortized O(1) per event — a 10^5-leg fan-out
    # (the renewal-storm bench) would otherwise audit in O(n²).
    pending: Dict[Tuple[object, ...], Deque[NotificationLeg]] = {}

    def open_leg(fields: Tuple[object, ...]) -> Optional[NotificationLeg]:
        """The oldest unresolved leg this event can belong to."""
        queue = pending.get(_leg_key(fields))
        if queue is None:
            return None
        while queue and queue[0].resolved:
            queue.popleft()
        return queue[0] if queue else None

    for index, (t, event, fields) in enumerate(events):
        if event == CHANGE_DETECTED:
            seq = fields[0]
            if not seq:
                orphans.append((index, "change.detected without seq"))
                continue
            if _closed(by_seq.get(seq)):
                orphans.append(
                    (index, f"change.detected after change settled seq={seq}"))
                continue
            span = span_for(seq)
            if span.detected_index is not None:
                orphans.append((index, f"duplicate change.detected seq={seq}"))
                continue
            span.detected_index = index
            span.detected_t = t
            span.zone, span.name, span.rrtype, span.kind = map(
                field_text, fields[1:])
        elif event == NOTIFY_SEND:
            seq, cache, name, rrtype, msg_id = fields
            seq = seq or 0
            if seq and _closed(by_seq.get(seq)):
                orphans.append(
                    (index, f"notify.send after change settled seq={seq}"))
                continue
            leg = NotificationLeg(
                seq=seq, cache=str(field_text(cache)),
                name=field_text(name), rrtype=field_text(rrtype),
                msg_id=msg_id, send_index=index, send_t=t)
            if seq:
                span_for(seq).legs.append(leg)
            else:
                untracked.append(leg)
            pending.setdefault(_leg_key(fields),
                               collections.deque()).append(leg)
        elif event == NOTIFY_RETRANSMIT:
            leg = open_leg(fields)
            if leg is None:
                orphans.append((index, "retransmit without outstanding send"))
                continue
            leg.retransmits.append((index, t, int(fields[5] or 0)))
        elif event == NOTIFY_ACK:
            leg = open_leg(fields)
            if leg is None:
                orphans.append((index, "ack without outstanding send"))
                continue
            leg.ack_index = index
            leg.ack_t = t
            rtt = fields[4]
            leg.rtt = float(rtt) if rtt is not None else None
        elif event == NOTIFY_TIMEOUT:
            leg = open_leg(fields)
            if leg is None:
                orphans.append((index, "timeout without outstanding send"))
                continue
            leg.timeout_index = index
            leg.timeout_t = t
            leg.timeout_reason = fields[4]
        elif event == CHANGE_SETTLED:
            seq = fields[0]
            if not seq:
                orphans.append((index, "change.settled without seq"))
                continue
            span = span_for(seq)
            if span.settled_index is not None:
                orphans.append((index, f"duplicate change.settled seq={seq}"))
                continue
            span.settled_index = index
            span.settled_t = t
            _seq, window, acked, failed = fields
            span.settled_window = float(window) if window is not None else None
            span.settled_acked = int(acked) if acked is not None else None
            span.settled_failed = int(failed) if failed is not None else None
        elif event in (LEASE_GRANT, LEASE_RENEW):
            key = fields[:3]
            length = float(fields[3] or 0.0)
            current = open_leases.get(key)
            if event == LEASE_RENEW and current is not None:
                current.renewals.append((index, t, length))
                continue
            # A fresh grant supersedes any span still open on the pair
            # (the table reclaims expired entries before re-granting, so
            # a live trace closes it with lease.expire first).
            if current is not None:
                current.end_index = index
                current.end_t = t
                current.end_kind = "superseded"
            cache, name, rrtype = (str(field_text(part)) for part in key)
            span = LeaseSpan(cache=cache, name=name, rrtype=rrtype,
                             grant_index=index, granted_at=t, length=length)
            leases.append(span)
            open_leases[key] = span
        elif event in (LEASE_EXPIRE, LEASE_REVOKE):
            current = open_leases.pop(fields[:3], None)
            if current is None:
                orphans.append((index, f"{event} without a live lease"))
                continue
            current.end_index = index
            current.end_t = t
            current.end_kind = ("expire" if event == LEASE_EXPIRE
                                else "revoke")
    return SpanSet(changes=changes, leases=leases, untracked=untracked,
                   orphans=orphans)
