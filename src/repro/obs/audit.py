"""The protocol invariant checker: every run audits its own trace.

DNScup's headline claims are *guarantees*: after a DN2IP change every
leased cache is consistent again within one notification round trip,
live leases never exceed the storage budget, and renewals never exceed
the message budget of the §4 optimizers.  One engine,
:class:`IncrementalAuditor`, checks those guarantees machine-readably
over a trace, one event at a time, emitting a structured
:class:`Violation` per breach:

* **completeness** — every cache holding a live lease on the changed
  record when the change was detected received a ``notify.send``;
* **termination** — every send resolves to an ack or a timeout, and
  does so before the change settles;
* **causality** — no effect precedes its cause (ack/timeout/retransmit
  after the send, time monotone along each leg) and each ack's ``rtt``
  field equals its ack−send timestamp difference exactly;
* **budget.storage / budget.renewal** — replayed lease-table occupancy
  never exceeds the storage-constrained budget; the renewal rate never
  exceeds the communication-constrained budget;
* **staleness** — the ``change.settled`` window equals the recomputed
  last-ack window, no ack lands after settlement, and (when a bound is
  configured) no acked holder stayed stale longer than it;
* **wire** — each ``notify.send`` matches captured CACHE-UPDATE
  datagrams by message ID, with enough transmissions for its attempts
  and a delivered datagram behind every acknowledgement.

Feed the auditor trace events in emission order
(:meth:`IncrementalAuditor.feed` / :meth:`~IncrementalAuditor.feed_many`):

* violations that no later event can repair (orphans, causality
  breaches, budget breaches, post-settlement bookkeeping) become
  **permanent** the moment their evidence arrives and are returned from
  ``feed`` — the live telemetry plane fails fast on them;
* obligations that a later event may still discharge (an unresolved
  ``notify.send``, an unnotified lease holder, an unsettled change) are
  held as **pending** state and materialize as violations only when
  :meth:`~IncrementalAuditor.report` is asked for a verdict.  Reports
  are non-destructive and history-independent: the report after any
  prefix equals that of a fresh auditor fed the same prefix.

Memory stays bounded by the *in-flight* protocol state, not the trace
length: once a change settles and every leg has resolved, its span is
retired — dropped whole, leaving only its seq in a set so that late
events naming it are still classified as orphans
(:func:`repro.obs.spans._closed` is the same freeze point, and says
why no instrumented run names a retired seq again).  The peak number
of tracked spans (unretired changes + live leases + unresolved
untracked legs) is :attr:`IncrementalAuditor.peak_tracked_spans`,
asserted against documented bounds in
``benchmarks/bench_streaming_audit.py``.

:func:`audit_trace` — the batch entry point — is ``feed_many`` plus
``report``.  Only the **wire** family needs more than the event stream:
when a capture is supplied, ``audit_trace`` additionally rebuilds the
notification legs with ``build_spans`` and cross-checks them against
the captured datagrams.

The auditor assumes a complete trace (``TraceBus.dropped == 0``):
ring-truncated traces decapitate spans and surface false causality
orphans, which is the honest answer for an unauditable record.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
from typing import (Any, Callable, ClassVar, Deque, Dict, Iterable, List,
                    Optional, Sequence, Set, Tuple)

from .capture import FATE_DELIVERED
from .metrics import Histogram
from .spans import SpanSet, _leg_key, build_spans
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

#: Violation kinds (a stable contract, PROTOCOL.md §9).
COMPLETENESS = "completeness"
TERMINATION = "termination"
CAUSALITY = "causality"
BUDGET_STORAGE = "budget.storage"
BUDGET_RENEWAL = "budget.renewal"
STALENESS = "staleness"
WIRE = "wire"

VIOLATION_KINDS = frozenset({
    COMPLETENESS, TERMINATION, CAUSALITY,
    BUDGET_STORAGE, BUDGET_RENEWAL, STALENESS, WIRE,
})

#: Slack for comparing a float carried in one event against the same
#: quantity recomputed from two timestamps.  The live emitters record
#: the identical float objects, so exact runs audit at zero slack; the
#: epsilon only forgives decimal re-serialization by foreign tools.
FLOAT_SLACK = 1e-9


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the offending trace events."""

    kind: str
    message: str
    seq: int = 0
    t: Optional[float] = None
    #: Indices into the audited event list of the evidence.
    events: Tuple[int, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form with stable key order."""
        return {"kind": self.kind, "seq": self.seq, "t": self.t,
                "events": list(self.events), "message": self.message}


@dataclasses.dataclass
class AuditLimits:
    """The budgets and bounds the run promised to honour."""

    #: Storage-constrained budget (§4.2.1): maximum live leases the
    #: table may carry — the middleware's ``lease_capacity``.
    storage_budget: Optional[int] = None
    #: Communication-constrained budget (§4.2.2): maximum sustained
    #: renewal rate, renewals/second over :attr:`renewal_window`.
    renewal_budget: Optional[float] = None
    renewal_window: float = 60.0
    #: Bound on per-holder staleness: seconds between change detection
    #: and that holder's acknowledgement (the consistency window each
    #: acked cache experienced).  None skips the bound.
    max_staleness: Optional[float] = None


@dataclasses.dataclass
class AuditReport:
    """The auditor's verdict over the events fed so far."""

    violations: List[Violation]
    #: Facts examined per check family (for "0 violations across N
    #: checks" reporting; a family absent from the dict did not run).
    checks: Dict[str, int]
    events_audited: int
    #: Currently tracked spans and the high-water mark (the documented
    #: memory bound: unretired changes + live leases + unresolved
    #: untracked legs).
    tracked_spans: int
    peak_tracked_spans: int
    #: Capture records cross-checked; None when no capture was supplied.
    capture_audited: Optional[int] = None

    @property
    def ok(self) -> bool:
        """True when no invariant is violated on the prefix seen."""
        return not self.violations

    def counts(self) -> Dict[str, int]:
        """Violation kind -> occurrences, sorted by kind."""
        tally: Dict[str, int] = {}
        for violation in self.violations:
            tally[violation.kind] = tally.get(violation.kind, 0) + 1
        return dict(sorted(tally.items()))

    def kinds(self) -> frozenset:
        """The set of violated kinds."""
        return frozenset(v.kind for v in self.violations)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form mirroring ``repro-obs audit --json``."""
        return {
            "ok": self.ok,
            "events_audited": self.events_audited,
            "capture_audited": self.capture_audited,
            "checks": dict(sorted(self.checks.items())),
            "violation_counts": self.counts(),
            "violations": [v.as_dict() for v in self.violations],
        }


# -- violation constructors ---------------------------------------------------
#
# PROTOCOL.md §9.3's message contract in one place: every violation the
# auditor emits, permanent or pending, is built here, so a message or
# evidence tuple has exactly one spelling.  ``cache`` / ``name`` /
# ``rrtype`` arrive as the record held them and become text here, via
# ``field_text`` (``str()`` of an endpoint tuple is not ``addr:port``).


def _where(seq: int, cache: object) -> str:
    return f"(seq={seq} cache={field_text(cache)})"


def orphan_violation(index: int, reason: str) -> Violation:
    return Violation(kind=CAUSALITY, message=f"orphan event: {reason}",
                     events=(index,))


def unnotified_holder_violation(seq: int, detected_t: Optional[float],
                                detected_index: int, grant_index: int,
                                cache: object, name: object,
                                rrtype: object) -> Violation:
    return Violation(
        kind=COMPLETENESS, seq=seq, t=detected_t,
        events=(detected_index, grant_index),
        message=(f"lease holder {field_text(cache)} on {field_text(name)}/"
                 f"{field_text(rrtype)} never notified for seq={seq}"))


def unresolved_leg_violation(seq: int, cache: object, send_t: float,
                             send_index: int) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=send_t, events=(send_index,),
        message=(f"notify.send to {field_text(cache)} never resolved "
                 f"to ack or timeout (seq={seq})"))


def resolved_after_settled_violation(seq: int, cache: object,
                                     settled_t: Optional[float],
                                     resolution_index: int,
                                     settled_index: int) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=settled_t,
        events=(resolution_index, settled_index),
        message=(f"leg to {field_text(cache)} resolved after "
                 f"change.settled (seq={seq})"))


def never_settled_violation(seq: int, detected_t: Optional[float],
                            leg_count: int,
                            send_indices: Tuple[int, ...]) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=detected_t, events=send_indices,
        message=(f"change seq={seq} fanned out to "
                 f"{leg_count} holders but never settled"))


def retransmit_early_violation(seq: int, cache: object, t: float,
                               send_index: int, index: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=t, events=(send_index, index),
        message=f"retransmit before its send {_where(seq, cache)}")


def retransmit_attempt_violation(seq: int, cache: object, t: float,
                                 send_index: int, index: int,
                                 attempt: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=t, events=(send_index, index),
        message=f"retransmit with attempt={attempt} < 2 {_where(seq, cache)}")


def ack_before_send_violation(seq: int, cache: object, ack_t: float,
                              send_index: int, ack_index: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=ack_t, events=(send_index, ack_index),
        message=f"ack timestamped before its send {_where(seq, cache)}")


def ack_missing_rtt_violation(seq: int, cache: object, ack_t: float,
                              ack_index: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=ack_t, events=(ack_index,),
        message=f"ack carries no rtt field {_where(seq, cache)}")


def rtt_mismatch_violation(seq: int, cache: object, send_t: float,
                           ack_t: float, send_index: int, ack_index: int,
                           rtt: float) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=ack_t, events=(send_index, ack_index),
        message=(f"rtt={rtt!r} but ack-send timestamps give "
                 f"{ack_t - send_t!r} {_where(seq, cache)}"))


def stale_holder_violation(seq: int, cache: object, ack_t: float,
                           send_index: int, ack_index: int,
                           staleness: float, bound: float) -> Violation:
    return Violation(
        kind=STALENESS, seq=seq, t=ack_t, events=(send_index, ack_index),
        message=(f"holder stale {staleness:.6g}s > bound "
                 f"{bound:.6g}s {_where(seq, cache)}"))


def timeout_before_send_violation(seq: int, cache: object, timeout_t: float,
                                  send_index: int,
                                  timeout_index: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=timeout_t,
        events=(send_index, timeout_index),
        message=f"timeout timestamped before its send {_where(seq, cache)}")


def settled_acked_violation(seq: int, settled_t: Optional[float],
                            settled_index: int, claimed: int,
                            actual: int) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=settled_t, events=(settled_index,),
        message=(f"change.settled claims acked={claimed} "
                 f"but the trace shows {actual} (seq={seq})"))


def settled_failed_violation(seq: int, settled_t: Optional[float],
                             settled_index: int, claimed: int,
                             actual: int) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=settled_t, events=(settled_index,),
        message=(f"change.settled claims failed={claimed} "
                 f"but the trace shows {actual} (seq={seq})"))


def settled_window_violation(seq: int, settled_t: Optional[float],
                             settled_index: int,
                             recorded: Optional[float],
                             window: Optional[float]) -> Violation:
    return Violation(
        kind=STALENESS, seq=seq, t=settled_t, events=(settled_index,),
        message=(f"settled window={recorded!r} but last-ack "
                 f"recomputation gives {window!r} (seq={seq})"))


def untracked_unresolved_violation(cache: object, send_t: float,
                                   send_index: int) -> Violation:
    return Violation(
        kind=TERMINATION, t=send_t, events=(send_index,),
        message=(f"untracked notify.send to {field_text(cache)} never "
                 f"resolved to ack or timeout"))


def storage_budget_violation(t: float, index: int, active: int,
                             budget: int) -> Violation:
    return Violation(
        kind=BUDGET_STORAGE, t=t, events=(index,),
        message=(f"lease occupancy {active} exceeds the "
                 f"storage budget {budget}"))


def renewal_budget_violation(t: float, index: int, in_window: int,
                             window: float, budget: float) -> Violation:
    return Violation(
        kind=BUDGET_RENEWAL, t=t, events=(index,),
        message=(f"{in_window} renewals in {window:.6g}s exceeds the "
                 f"communication budget of {budget:.6g}/s"))


# -- the auditor --------------------------------------------------------------


def _evidence_order(total: int) -> Callable[[Violation], Tuple[int, str]]:
    """A report's sort key: first evidence index (evidence-free
    violations last), then kind.  The sort is stable, so violations that
    tie keep the order their evidence arrived in."""
    return lambda v: (v.events[0] if v.events else total, v.kind)


@dataclasses.dataclass(eq=False)
class _Leg:
    """One in-flight notification leg (forgotten once resolved)."""

    seq: int
    cache: object
    send_index: int
    send_t: float


@dataclasses.dataclass
class _Lease:
    """The live lease on one (cache, name, rrtype) pair."""

    grant_index: int
    start: float
    length: float


@dataclasses.dataclass
class _Change:
    """Running state for one unretired change seq: its in-flight legs,
    unnotified holders and settle bookkeeping.
    :meth:`IncrementalAuditor._maybe_retire` drops it whole once the
    change settled and every leg resolved.
    """

    seq: int
    detected_index: Optional[int] = None
    detected_t: Optional[float] = None
    name: object = None
    rrtype: object = None
    #: send_index -> unresolved leg, in send order (resolved legs are
    #: dropped).
    unresolved: Dict[int, _Leg] = dataclasses.field(default_factory=dict)
    #: send_index of every leg, resolved or not (for the never-settled
    #: evidence tuple).
    send_indices: List[int] = dataclasses.field(default_factory=list)
    #: Caches notified before the detect event (None once detected).
    pre_detect_caches: Optional[Set[object]] = \
        dataclasses.field(default_factory=set)
    #: holder cache -> grant_index still owed a notify.send
    #: (None before the detect event).
    pending_holders: Optional[Dict[object, int]] = None
    #: ``(send_index, ack_index, ack_t, cache)`` for acks that landed
    #: before the detect event — their staleness check needs
    #: ``detected_t`` and runs retroactively when the detect arrives.
    pre_detect_acks: List[Tuple[int, int, float, object]] = \
        dataclasses.field(default_factory=list)
    acked: int = 0
    failed: int = 0
    ack_max: Optional[float] = None
    settled_index: Optional[int] = None
    settled_t: Optional[float] = None
    settled_window: Optional[float] = None
    settled_acked: Optional[int] = None
    settled_failed: Optional[int] = None


class IncrementalAuditor:
    """The audit engine: single pass, memory bounded by open spans.

    ``window_hist`` (optional) receives one observation per settled
    change — its recomputed consistency window — at retirement time;
    the tail follower uses it for rolling p50/p95 percentiles.
    """

    def __init__(self, limits: Optional[AuditLimits] = None,
                 window_hist: Optional[Histogram] = None) -> None:
        self.limits = limits or AuditLimits()
        self.window_hist = window_hist
        self._permanent: List[Violation] = []
        self._checks: Dict[str, int] = {}
        #: Events consumed so far.
        self.events_audited = 0
        #: seq -> unretired change, in first-seen order.
        self._changes: Dict[int, _Change] = {}
        #: Seqs of retired changes — all a late event naming one needs
        #: to know to be classified as an orphan.
        self._retired: Set[int] = set()
        #: (cache, name, rrtype) — a ``lease.*`` record's first three
        #: fields — -> the live lease on that pair.
        self._leases: Dict[Tuple[object, ...], _Lease] = {}
        #: send_index -> unresolved untracked (seq 0) leg, in send order.
        self._untracked: Dict[int, _Leg] = {}
        # Every unresolved leg again, by matching identity (_leg_key,
        # as in build_spans), oldest first: pairing an ack, retransmit
        # or timeout with its leg is O(1), not a scan of the fan-out.
        self._open_legs: Dict[Tuple[object, ...], Deque[_Leg]] = {}
        # Budget replay state: lease-table occupancy and the renewal
        # sliding window.
        self._budget_active = 0
        self._renew_times: Deque[float] = collections.deque()
        self.peak_tracked_spans = 0

    # -- public surface ------------------------------------------------------

    @property
    def tracked_spans(self) -> int:
        """Live state the auditor is holding: unretired changes plus
        live leases plus unresolved untracked legs."""
        return (len(self._changes) + len(self._leases)
                + len(self._untracked))

    @property
    def permanent_violations(self) -> Tuple[Violation, ...]:
        """Violations no later event can repair (fail-fast signal)."""
        return tuple(self._permanent)

    def feed(self, event: TraceEvent) -> List[Violation]:
        """Consume one trace event; return newly-permanent violations."""
        return self.feed_many((event,))

    def feed_many(self, events: Iterable[TraceEvent]) -> List[Violation]:
        """Consume events in order; return newly-permanent violations.

        Numbers each event and dispatches it on its name; a name absent
        from ``_HANDLERS`` is counted and otherwise unread."""
        before = len(self._permanent)
        handlers = self._HANDLERS
        index = self.events_audited
        try:
            for t, name, fields in events:
                handler = handlers.get(name)
                if handler is not None:
                    handler(self, index, t, fields)
                index += 1
        finally:
            self.events_audited = index
        return self._permanent[before:]

    def pending_violations(self) -> List[Violation]:
        """Obligations still open on the prefix seen so far:
        unresolved legs, unnotified holders, unsettled fan-outs, and
        bookkeeping checks for spans that settled while legs were still
        in flight.  Non-destructive — feeding more events may discharge
        them.
        """
        return self._pending({})

    def _pending(self, checks: Dict[str, int]) -> List[Violation]:
        """:meth:`pending_violations`, counting the checks they take
        into ``checks``."""
        pending: List[Violation] = []
        for change in self._changes.values():
            for leg in change.unresolved.values():
                pending.append(unresolved_leg_violation(
                    change.seq, leg.cache, leg.send_t, leg.send_index))
            pending.extend(self._unnotified_holders(change))
            if change.send_indices and change.settled_index is None:
                checks[TERMINATION] = checks.get(TERMINATION, 0) + 1
                pending.append(never_settled_violation(
                    change.seq, change.detected_t,
                    len(change.send_indices),
                    tuple(change.send_indices)))
            if change.settled_index is not None:
                # Settled while legs were still unresolved: check the
                # bookkeeping against the counts visible so far, without
                # retiring, so a later resolution updates the verdict.
                pending.extend(self._settlement_violations(change, checks))
        for leg in self._untracked.values():
            pending.append(untracked_unresolved_violation(
                leg.cache, leg.send_t, leg.send_index))
        return pending

    def report(self) -> AuditReport:
        """Full verdict over the prefix consumed so far."""
        checks = dict(self._checks)
        violations = self._permanent + self._pending(checks)
        total = self.events_audited
        violations.sort(key=_evidence_order(total))
        return AuditReport(
            violations=violations, checks=checks, events_audited=total,
            tracked_spans=self.tracked_spans,
            peak_tracked_spans=self.peak_tracked_spans)

    # -- bookkeeping ---------------------------------------------------------

    def _grew(self) -> None:
        """Note the high-water mark; called by the handlers that can
        add tracked state (send, grant, lease-less renew, detected) —
        every other event only keeps or shrinks it."""
        tracked = self.tracked_spans
        if tracked > self.peak_tracked_spans:
            self.peak_tracked_spans = tracked

    def _check(self, kind: str, amount: int = 1) -> None:
        self._checks[kind] = self._checks.get(kind, 0) + amount

    def _orphan(self, index: int, reason: str) -> None:
        self._permanent.append(orphan_violation(index, reason))

    def _change_for(self, seq: int) -> _Change:
        change = self._changes.get(seq)
        if change is None:
            change = self._changes[seq] = _Change(seq=seq)
        return change

    def _open_leg(self, fields: Tuple[object, ...],
                  resolve: bool = False) -> Optional[_Leg]:
        """The oldest unresolved leg this event can belong to;
        ``resolve`` also forgets it (an ack or timeout closes it)."""
        key = _leg_key(fields)
        queue = self._open_legs.get(key)
        if queue is None:
            return None
        leg = queue[0]
        if resolve:
            queue.popleft()
            if not queue:
                del self._open_legs[key]
            if leg.seq:
                del self._changes[leg.seq].unresolved[leg.send_index]
            else:
                del self._untracked[leg.send_index]
        return leg

    # -- change-span events --------------------------------------------------

    def _on_detected(self, index: int, t: float,
                     fields: Tuple[object, ...]) -> None:
        seq = fields[0]
        if not seq:
            self._orphan(index, "change.detected without seq")
            return
        if seq in self._retired:
            self._orphan(
                index, f"change.detected after change settled seq={seq}")
            return
        change = self._change_for(seq)
        if change.detected_index is not None:
            self._orphan(index, f"duplicate change.detected seq={seq}")
            return
        change.detected_index = index
        change.detected_t = t
        change.name = fields[2]
        change.rrtype = fields[3]
        if change.name is not None:
            # Completeness: snapshot the live holders right now —
            # granted before this event, not yet ended, term still
            # running (``t < expiry``, :meth:`repro.core.lease.Lease.
            # is_valid`'s strict bound).  Later events cannot add to
            # the set a change owed a notification, so it is final.
            rrtype = change.rrtype or ""
            holders = sorted(
                (lease.grant_index, key[0])
                for key, lease in self._leases.items()
                if key[1] == change.name and key[2] == rrtype
                and lease.grant_index < index
                and t < lease.start + lease.length)
            self._check(COMPLETENESS, max(len(holders), 1))
            seen = change.pre_detect_caches or set()
            change.pending_holders = {
                cache: grant_index for grant_index, cache in holders
                if cache not in seen}
        else:
            change.pending_holders = {}
        change.pre_detect_caches = None
        if self.limits.max_staleness is not None:
            for send_index, ack_index, ack_t, cache in \
                    change.pre_detect_acks:
                self._check(STALENESS)
                staleness = ack_t - t
                if staleness > self.limits.max_staleness + FLOAT_SLACK:
                    self._permanent.append(stale_holder_violation(
                        seq, cache, ack_t, send_index, ack_index,
                        staleness, self.limits.max_staleness))
        change.pre_detect_acks = []
        self._grew()

    def _on_send(self, index: int, t: float,
                 fields: Tuple[object, ...]) -> None:
        seq = fields[0] or 0
        if seq in self._retired:
            self._orphan(index, f"notify.send after change settled seq={seq}")
            return
        leg = _Leg(seq=seq, cache=fields[1], send_index=index, send_t=t)
        self._check(TERMINATION)
        self._check(CAUSALITY)
        self._open_legs.setdefault(_leg_key(fields),
                                   collections.deque()).append(leg)
        if seq:
            change = self._change_for(seq)
            change.unresolved[index] = leg
            change.send_indices.append(index)
            if change.pre_detect_caches is not None:
                change.pre_detect_caches.add(leg.cache)
            elif change.pending_holders:
                change.pending_holders.pop(leg.cache, None)
        else:
            self._untracked[index] = leg
        self._grew()

    def _on_retransmit(self, index: int, t: float,
                       fields: Tuple[object, ...]) -> None:
        leg = self._open_leg(fields)
        if leg is None:
            self._orphan(index, "retransmit without outstanding send")
            return
        attempt = fields[5] or 0
        if t < leg.send_t:
            self._permanent.append(retransmit_early_violation(
                leg.seq, leg.cache, t, leg.send_index, index))
        if attempt < 2:
            self._permanent.append(retransmit_attempt_violation(
                leg.seq, leg.cache, t, leg.send_index, index, attempt))

    def _on_ack(self, index: int, t: float,
                fields: Tuple[object, ...]) -> None:
        leg = self._open_leg(fields, resolve=True)
        if leg is None:
            self._orphan(index, "ack without outstanding send")
            return
        rtt = fields[4]
        if t < leg.send_t:
            self._permanent.append(ack_before_send_violation(
                leg.seq, leg.cache, t, leg.send_index, index))
        if rtt is None:
            self._permanent.append(ack_missing_rtt_violation(
                leg.seq, leg.cache, t, index))
        elif abs((t - leg.send_t) - rtt) > FLOAT_SLACK:
            self._permanent.append(rtt_mismatch_violation(
                leg.seq, leg.cache, leg.send_t, t, leg.send_index,
                index, rtt))
        if not leg.seq:
            # Untracked legs have no detection time: they owe
            # termination and causality, no staleness bound.
            return
        change = self._changes[leg.seq]
        change.acked += 1
        if change.ack_max is None or t > change.ack_max:
            change.ack_max = t
        if self.limits.max_staleness is not None:
            if change.detected_t is not None:
                self._check(STALENESS)
                staleness = t - change.detected_t
                if staleness > self.limits.max_staleness + FLOAT_SLACK:
                    self._permanent.append(stale_holder_violation(
                        leg.seq, leg.cache, t, leg.send_index, index,
                        staleness, self.limits.max_staleness))
            else:
                change.pre_detect_acks.append(
                    (leg.send_index, index, t, leg.cache))
        self._leg_closed(change, leg, index)

    def _on_timeout(self, index: int, t: float,
                    fields: Tuple[object, ...]) -> None:
        leg = self._open_leg(fields, resolve=True)
        if leg is None:
            self._orphan(index, "timeout without outstanding send")
            return
        if t < leg.send_t:
            self._permanent.append(timeout_before_send_violation(
                leg.seq, leg.cache, t, leg.send_index, index))
        if not leg.seq:
            return
        change = self._changes[leg.seq]
        change.failed += 1
        self._leg_closed(change, leg, index)

    def _leg_closed(self, change: _Change, leg: _Leg, index: int) -> None:
        """A tracked leg just resolved at event ``index``: too late if
        its change already settled, and possibly the last one out."""
        if change.settled_index is not None:
            self._permanent.append(resolved_after_settled_violation(
                leg.seq, leg.cache, change.settled_t, index,
                change.settled_index))
        self._maybe_retire(change)

    def _on_settled(self, index: int, t: float,
                    fields: Tuple[object, ...]) -> None:
        seq = fields[0]
        if not seq:
            self._orphan(index, "change.settled without seq")
            return
        # A retired seq has settled by definition.
        change = None if seq in self._retired else self._change_for(seq)
        if change is None or change.settled_index is not None:
            self._orphan(index, f"duplicate change.settled seq={seq}")
            return
        change.settled_index = index
        change.settled_t = t
        (_seq, change.settled_window, change.settled_acked,
         change.settled_failed) = fields
        self._maybe_retire(change)

    def _settlement_violations(self, change: _Change,
                               checks: Dict[str, int]) -> List[Violation]:
        """The settle event's bookkeeping vs the counts seen so far
        (one staleness check, counted into ``checks``)."""
        settled_index = change.settled_index
        assert settled_index is not None
        checks[STALENESS] = checks.get(STALENESS, 0) + 1
        out: List[Violation] = []
        if change.settled_acked is not None \
                and change.settled_acked != change.acked:
            out.append(settled_acked_violation(
                change.seq, change.settled_t, settled_index,
                change.settled_acked, change.acked))
        if change.settled_failed is not None \
                and change.settled_failed != change.failed:
            out.append(settled_failed_violation(
                change.seq, change.settled_t, settled_index,
                change.settled_failed, change.failed))
        window: Optional[float] = None
        if change.detected_t is not None and change.ack_max is not None:
            window = change.ack_max - change.detected_t
        recorded = change.settled_window
        if (window is None) != (recorded is None) or (
                window is not None and recorded is not None
                and abs(window - recorded) > FLOAT_SLACK):
            out.append(settled_window_violation(
                change.seq, change.settled_t, settled_index,
                recorded, window))
        return out

    def _unnotified_holders(self, change: _Change) -> List[Violation]:
        """Holders snapshotted at detection that no send has reached."""
        if not change.pending_holders:
            return []
        detected_index = change.detected_index
        assert detected_index is not None
        return [unnotified_holder_violation(
                    change.seq, change.detected_t, detected_index,
                    grant_index, cache, change.name, change.rrtype)
                for cache, grant_index in change.pending_holders.items()]

    def _maybe_retire(self, change: _Change) -> None:
        """Fold a settled, fully-resolved span into permanent state
        and forget it: only its seq is kept, which is all a late event
        is ever asked (``_retired``)."""
        if change.settled_index is None or change.unresolved:
            return
        self._permanent.extend(
            self._settlement_violations(change, self._checks))
        self._permanent.extend(self._unnotified_holders(change))
        window_hist = self.window_hist
        if window_hist is not None:
            if change.detected_t is not None \
                    and change.ack_max is not None:
                window_hist.observe(change.ack_max - change.detected_t)
        self._retired.add(change.seq)
        del self._changes[change.seq]

    # -- lease + budget events -----------------------------------------------

    def _on_grant(self, index: int, t: float,
                  fields: Tuple[object, ...]) -> None:
        # Supersedes any span still open on the pair.
        self._leases[fields[:3]] = _Lease(
            grant_index=index, start=t, length=fields[3] or 0.0)
        self._grew()
        self._budget_active += 1
        if self.limits.storage_budget is not None:
            self._check(BUDGET_STORAGE)
            if self._budget_active > self.limits.storage_budget:
                self._permanent.append(storage_budget_violation(
                    t, index, self._budget_active,
                    self.limits.storage_budget))

    def _on_renew(self, index: int, t: float,
                  fields: Tuple[object, ...]) -> None:
        key = fields[:3]
        length = fields[3] or 0.0
        current = self._leases.get(key)
        if current is not None:
            # A renewal restarts the term from its own timestamp.
            current.start = t
            current.length = length
        else:
            # Renew without a live lease opens a fresh span, same as
            # build_spans' grant fallthrough.
            self._leases[key] = _Lease(grant_index=index, start=t,
                                       length=length)
            self._grew()
        if self.limits.renewal_budget is not None:
            self._check(BUDGET_RENEWAL)
            window = self.limits.renewal_window
            times = self._renew_times
            times.append(t)
            while times[0] <= t - window:
                times.popleft()
            in_window = len(times)
            allowed = self.limits.renewal_budget * window
            if in_window > allowed + FLOAT_SLACK:
                self._permanent.append(renewal_budget_violation(
                    t, index, in_window, window,
                    self.limits.renewal_budget))

    def _on_lease_end(self, index: int, t: float,
                      fields: Tuple[object, ...], event: str) -> None:
        if self._leases.pop(fields[:3], None) is None:
            self._orphan(index, f"{event} without a live lease")
        self._budget_active = max(0, self._budget_active - 1)

    #: Event name -> handler, called ``handler(self, index, t, fields)``;
    #: a name absent here (``net.*``, ``load.*``, ...) is nothing the
    #: audit reads.  On the class: an auditor holds no cycle through
    #: bound methods, so dropping one frees its state at once.
    _HANDLERS: ClassVar[Dict[str, Callable[..., None]]] = {
        NOTIFY_SEND: _on_send,
        NOTIFY_ACK: _on_ack,
        NOTIFY_RETRANSMIT: _on_retransmit,
        NOTIFY_TIMEOUT: _on_timeout,
        CHANGE_DETECTED: _on_detected,
        CHANGE_SETTLED: _on_settled,
        LEASE_GRANT: _on_grant,
        LEASE_RENEW: _on_renew,
        LEASE_EXPIRE: functools.partial(_on_lease_end, event=LEASE_EXPIRE),
        LEASE_REVOKE: functools.partial(_on_lease_end, event=LEASE_REVOKE),
    }


# -- batch entry points ------------------------------------------------------


def audit_trace(events: Sequence[TraceEvent],
                capture: Optional[Sequence[Dict[str, object]]] = None,
                limits: Optional[AuditLimits] = None) -> AuditReport:
    """Run every invariant check over one trace (see module docstring).

    ``capture`` is the wire-capture record list
    (:attr:`repro.obs.WireCapture.records` or
    :func:`repro.obs.load_capture` output); None skips the trace/wire
    cross-check — and the ``build_spans`` pass it alone needs.
    ``limits`` supplies the budgets; None checks only the budget-free
    invariants.
    """
    auditor = IncrementalAuditor(limits)
    auditor.feed_many(events)
    report = auditor.report()
    if capture is not None:
        wire_violations, examined = _audit_wire(build_spans(events), capture)
        if examined:
            report.checks[WIRE] = examined
        report.violations.extend(wire_violations)
        report.violations.sort(key=_evidence_order(report.events_audited))
        report.capture_audited = len(capture)
    return report


def audit_observability(obs: Any, limits: Optional[AuditLimits] = None
                        ) -> AuditReport:
    """Audit a live :class:`repro.obs.Observability` bundle in place."""
    if obs.trace.dropped:
        raise ValueError(
            f"trace incomplete: {obs.trace.dropped} events fell off the "
            f"ring — raise trace_capacity to audit this run")
    capture = obs.capture.records if obs.capture is not None else None
    return audit_trace(obs.trace.events, capture=capture, limits=limits)


# -- trace/wire cross-check ---------------------------------------------------


def _audit_wire(spans: SpanSet, capture: Sequence[Dict[str, object]]
                ) -> Tuple[List[Violation], int]:
    """Each notify.send must leave matching datagrams in the capture.

    Returns the violations and the number of legs examined."""
    violations: List[Violation] = []
    examined = 0
    by_id: Dict[Tuple[object, str], List[Dict[str, object]]] = {}
    for record in capture:
        if record.get("opcode") != "CACHE-UPDATE" or record.get("qr"):
            continue
        key = (record.get("id"), str(record.get("dst")))
        by_id.setdefault(key, []).append(record)
    legs = [leg for span in spans.changes for leg in span.legs]
    legs.extend(spans.untracked)
    for leg in legs:
        if leg.msg_id is None:
            continue
        examined += 1
        datagrams = by_id.get((leg.msg_id, leg.cache), [])
        where = f"id={leg.msg_id} cache={leg.cache} seq={leg.seq}"
        if not datagrams:
            violations.append(Violation(
                kind=WIRE, seq=leg.seq, t=leg.send_t,
                events=(leg.send_index,),
                message=f"notify.send matches no captured datagram "
                        f"({where})"))
            continue
        if len(datagrams) < leg.attempts:
            violations.append(Violation(
                kind=WIRE, seq=leg.seq, t=leg.send_t,
                events=(leg.send_index,),
                message=(f"{leg.attempts} attempts but only "
                         f"{len(datagrams)} captured datagrams ({where})")))
        if leg.acked and not any(d.get("fate") == FATE_DELIVERED
                                 for d in datagrams):
            violations.append(Violation(
                kind=WIRE, seq=leg.seq, t=leg.ack_t,
                events=(leg.send_index, leg.ack_index or leg.send_index),
                message=(f"acknowledged but no captured datagram was "
                         f"delivered ({where})")))
    return violations, examined
