"""Streaming protocol audit: one event at a time, bounded memory.

:func:`repro.obs.audit.audit_trace` is a batch auditor — it wants the
whole trace in memory before it says anything.  That shape cannot
watch a long-lived live run (PR 7) or follow a growing JSONL export:
by the time the verdict arrives the run is over.
:class:`IncrementalAuditor` runs the same invariant checks online:

* feed it trace events in emission order (:meth:`feed` /
  :meth:`feed_many`);
* violations that can never be repaired by later events (orphans,
  causality breaches, budget breaches, post-settlement bookkeeping)
  become **permanent** the moment their evidence arrives and are
  returned from :meth:`feed` — the live telemetry plane fails fast on
  them;
* obligations that a later event may still discharge (an unresolved
  ``notify.send``, an unnotified lease holder, an unsettled change)
  are held as **pending** state and materialize as violations only
  when :meth:`report` is asked for a verdict, exactly as the batch
  auditor would flag them on the same prefix.

Memory stays bounded by the *in-flight* protocol state, not the trace
length: once a change span settles and every leg has resolved, the
span is retired — its heavy per-leg state is dropped and only a small
per-seq residue (settle index, counters) survives to classify late
duplicates the same way the batch auditor does.  The peak number of
tracked spans (unretired changes + live leases + unresolved untracked
legs) is exposed as :attr:`IncrementalAuditor.peak_tracked_spans` and
asserted against documented bounds in the benches.

Equivalence contract (property-tested in
``tests/test_obs_streaming.py`` and asserted bit-for-bit in
``benchmarks/bench_streaming_audit.py``): on every prefix of *any*
trace, :meth:`report` yields the same
:class:`~repro.obs.audit.Violation` multiset, check counts, and event
totals as ``audit_trace`` over that prefix.  Retiring a span is safe
because both auditors freeze it at the same point
(:func:`repro.obs.spans._closed`): a ``notify.send`` or
``change.detected`` that names a seq whose change already settled with
every leg resolved is an orphan, not a late addition to the span — the
notification module settles a change only once all its legs resolved
and a new change to the same record gets a fresh seq, so no trace the
instrumentation emits contains one.

Both auditors build violations through the shared constructors in
:mod:`repro.obs.audit`, so messages and evidence tuples agree by
construction, not by parallel maintenance.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from .audit import (
    AuditLimits,
    BUDGET_RENEWAL,
    BUDGET_STORAGE,
    CAUSALITY,
    COMPLETENESS,
    FLOAT_SLACK,
    STALENESS,
    TERMINATION,
    Violation,
    ack_before_send_violation,
    ack_missing_rtt_violation,
    never_settled_violation,
    orphan_violation,
    renewal_budget_violation,
    resolved_after_settled_violation,
    retransmit_attempt_violation,
    retransmit_early_violation,
    rtt_mismatch_violation,
    settled_acked_violation,
    settled_failed_violation,
    settled_window_violation,
    stale_holder_violation,
    storage_budget_violation,
    timeout_before_send_violation,
    unnotified_holder_violation,
    unresolved_leg_violation,
    untracked_unresolved_violation,
)
from .metrics import Histogram
from .spans import _as_seq, _leg_key
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
)

_LeaseKey = Tuple[str, str, str]


@dataclasses.dataclass(eq=False)
class _Leg:
    """One in-flight notification leg (forgotten once resolved)."""

    seq: int
    cache: str
    name: object
    rrtype: object
    send_index: int
    send_t: float


@dataclasses.dataclass
class _Lease:
    """The live lease on one (cache, name, rrtype) pair."""

    cache: str
    grant_index: int
    start: float
    length: float


@dataclasses.dataclass
class _Change:
    """Running state for one change seq.

    While *tracked* the span carries its in-flight legs and unnotified
    holders; :meth:`IncrementalAuditor._maybe_retire` slims it down to
    the per-seq residue (settle/ detect indices + counters) once the
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
    #: evidence tuple); emptied at retirement.
    send_indices: List[int] = dataclasses.field(default_factory=list)
    #: Caches notified before the detect event (None once detected).
    pre_detect_caches: Optional[Set[str]] = \
        dataclasses.field(default_factory=set)
    #: holder cache -> grant_index still owed a notify.send
    #: (None before the detect event and after retirement).
    pending_holders: Optional[Dict[str, int]] = None
    #: ``(send_index, ack_index, ack_t, cache)`` for acks that landed
    #: before the detect event — their staleness check needs
    #: ``detected_t`` and runs retroactively when the detect arrives.
    pre_detect_acks: List[Tuple[int, int, float, str]] = \
        dataclasses.field(default_factory=list)
    acked: int = 0
    failed: int = 0
    ack_max: Optional[float] = None
    settled_index: Optional[int] = None
    settled_t: Optional[float] = None
    settled_window: Optional[float] = None
    settled_acked: Optional[int] = None
    settled_failed: Optional[int] = None
    retired: bool = False


@dataclasses.dataclass
class StreamReport:
    """The incremental auditor's verdict over the events fed so far.

    :meth:`as_dict` mirrors :meth:`repro.obs.audit.AuditReport.as_dict`
    key-for-key (``capture_audited`` is always None — the streaming
    plane audits the trace only), so the two verdicts compare directly.
    """

    violations: List[Violation]
    checks: Dict[str, int]
    events_audited: int
    #: Currently tracked spans and the high-water mark (the documented
    #: memory bound: unretired changes + live leases + unresolved
    #: untracked legs).
    tracked_spans: int
    peak_tracked_spans: int

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

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form comparable to the batch auditor's."""
        return {
            "ok": self.ok,
            "events_audited": self.events_audited,
            "capture_audited": None,
            "checks": dict(sorted(self.checks.items())),
            "violation_counts": self.counts(),
            "violations": [v.as_dict() for v in self.violations],
        }


class IncrementalAuditor:
    """Single-pass, bounded-memory equivalent of ``audit_trace``.

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
        self._pending_checks: Dict[str, int] = {}
        self._events = 0
        self._changes: Dict[int, _Change] = {}
        self._open_changes = 0
        self._leases: Dict[_LeaseKey, _Lease] = {}
        #: send_index -> unresolved untracked (seq 0) leg, in send order.
        self._untracked: Dict[int, _Leg] = {}
        # Every unresolved leg again, by matching identity (_leg_key,
        # as in build_spans), oldest first: pairing an ack, retransmit
        # or timeout with its leg is O(1), not a scan of the fan-out.
        self._open_legs: Dict[Tuple[object, ...], Deque[_Leg]] = {}
        # Budget replay state (mirrors _audit_budgets exactly, with the
        # renewal sliding window as a real deque instead of a list that
        # only ever grows).
        self._budget_active = 0
        self._renew_times: Deque[float] = collections.deque()
        self.peak_tracked_spans = 0

    # -- public surface ------------------------------------------------------

    @property
    def events_audited(self) -> int:
        """Events consumed so far."""
        return self._events

    @property
    def tracked_spans(self) -> int:
        """Live state the auditor is holding: unretired changes plus
        live leases plus unresolved untracked legs."""
        return (self._open_changes + len(self._leases)
                + len(self._untracked))

    @property
    def permanent_violations(self) -> Tuple[Violation, ...]:
        """Violations no later event can repair (fail-fast signal)."""
        return tuple(self._permanent)

    def feed(self, event: TraceEvent) -> List[Violation]:
        """Consume one trace event; return newly-permanent violations."""
        before = len(self._permanent)
        t, name, fields = event
        index = self._events
        self._events += 1
        if name == NOTIFY_SEND:
            self._on_send(index, t, fields)
        elif name == NOTIFY_ACK:
            self._on_ack(index, t, fields)
        elif name == NOTIFY_RETRANSMIT:
            self._on_retransmit(index, t, fields)
        elif name == NOTIFY_TIMEOUT:
            self._on_timeout(index, t, fields)
        elif name == CHANGE_DETECTED:
            self._on_detected(index, t, fields)
        elif name == CHANGE_SETTLED:
            self._on_settled(index, t, fields)
        elif name in (LEASE_GRANT, LEASE_RENEW):
            self._on_lease_start(name, index, t, fields)
        elif name in (LEASE_EXPIRE, LEASE_REVOKE):
            self._on_lease_end(name, index, fields)
        tracked = self.tracked_spans
        if tracked > self.peak_tracked_spans:
            self.peak_tracked_spans = tracked
        return self._permanent[before:]

    def feed_many(self, events: Iterable[TraceEvent]) -> List[Violation]:
        """Consume events in order; return newly-permanent violations."""
        before = len(self._permanent)
        for event in events:
            self.feed(event)
        return self._permanent[before:]

    def pending_violations(self) -> List[Violation]:
        """Obligations still open on the prefix seen so far.

        These are exactly the violations the batch auditor would emit
        for the same prefix on top of the permanent ones: unresolved
        legs, unnotified holders, unsettled fan-outs, and bookkeeping
        checks for spans that settled while legs were still in flight.
        Non-destructive — feeding more events may discharge them.
        """
        pending: List[Violation] = []
        self._pending_checks = {}
        for change in self._changes.values():
            for leg in change.unresolved.values():
                pending.append(unresolved_leg_violation(
                    change.seq, leg.cache, leg.send_t, leg.send_index))
            if change.retired:
                continue
            if change.pending_holders:
                detected_index = change.detected_index
                assert detected_index is not None
                for cache, grant_index in change.pending_holders.items():
                    pending.append(unnotified_holder_violation(
                        change.seq, change.detected_t,
                        detected_index, grant_index, cache,
                        change.name, change.rrtype))
            if change.send_indices and change.settled_index is None:
                self._pending_check(TERMINATION)
                pending.append(never_settled_violation(
                    change.seq, change.detected_t,
                    len(change.send_indices),
                    tuple(change.send_indices)))
            if change.settled_index is not None:
                # Settled while legs were still unresolved: the batch
                # auditor cross-checks the bookkeeping against the
                # counts visible so far; redo that here without
                # retiring, so a later resolution updates the verdict.
                pending.extend(self._settlement_violations(change))
        for leg in self._untracked.values():
            pending.append(untracked_unresolved_violation(
                leg.cache, leg.send_t, leg.send_index))
        return pending

    def report(self) -> StreamReport:
        """Full verdict over the prefix consumed so far."""
        violations = list(self._permanent)
        violations.extend(self.pending_violations())
        total = self._events
        violations.sort(key=lambda v: (v.events[0] if v.events else total,
                                       v.kind))
        checks = dict(self._checks)
        for kind, amount in self._pending_checks.items():
            checks[kind] = checks.get(kind, 0) + amount
        return StreamReport(
            violations=violations, checks=checks, events_audited=total,
            tracked_spans=self.tracked_spans,
            peak_tracked_spans=self.peak_tracked_spans)

    # -- bookkeeping ---------------------------------------------------------

    def _check(self, kind: str, amount: int = 1) -> None:
        self._checks[kind] = self._checks.get(kind, 0) + amount

    def _pending_check(self, kind: str, amount: int = 1) -> None:
        self._pending_checks[kind] = \
            self._pending_checks.get(kind, 0) + amount

    def _orphan(self, index: int, reason: str) -> None:
        self._permanent.append(orphan_violation(index, reason))

    def _change_for(self, seq: int) -> _Change:
        change = self._changes.get(seq)
        if change is None:
            change = self._changes[seq] = _Change(seq=seq)
            self._open_changes += 1
        return change

    def _open_leg(self, fields: Dict[str, object],
                  resolve: bool = False) -> Optional[_Leg]:
        """The oldest unresolved leg this event can belong to;
        ``resolve`` also forgets it (an ack or timeout closes it)."""
        seq = _as_seq(fields)
        key = _leg_key(seq, str(fields.get("cache")), fields.get("name"),
                       fields.get("rrtype"))
        queue = self._open_legs.get(key)
        if queue is None:
            return None
        leg = queue[0]
        if resolve:
            queue.popleft()
            if not queue:
                del self._open_legs[key]
            if seq:
                del self._changes[seq].unresolved[leg.send_index]
            else:
                del self._untracked[leg.send_index]
        return leg

    # -- change-span events --------------------------------------------------

    def _on_detected(self, index: int, t: float,
                     fields: Dict[str, object]) -> None:
        seq = _as_seq(fields)
        if not seq:
            self._orphan(index, "change.detected without seq")
            return
        change = self._change_for(seq)
        if change.retired:
            self._orphan(
                index, f"change.detected after change settled seq={seq}")
            return
        if change.detected_index is not None:
            self._orphan(index, f"duplicate change.detected seq={seq}")
            return
        change.detected_index = index
        change.detected_t = t
        change.name = fields.get("name")
        change.rrtype = fields.get("rrtype")
        if change.name is not None:
            # Completeness: snapshot the live holders right now — this
            # is all the batch auditor's holders_at() can ever see for
            # this detect index, so the snapshot is final.
            rrtype = change.rrtype or ""
            holders = sorted(
                (lease.grant_index, lease.cache)
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

    def _on_send(self, index: int, t: float,
                 fields: Dict[str, object]) -> None:
        seq = _as_seq(fields)
        change = self._change_for(seq) if seq else None
        if change is not None and change.retired:
            self._orphan(index, f"notify.send after change settled seq={seq}")
            return
        leg = _Leg(seq=seq, cache=str(fields.get("cache")),
                   name=fields.get("name"), rrtype=fields.get("rrtype"),
                   send_index=index, send_t=t)
        self._check(TERMINATION)
        self._check(CAUSALITY)
        self._open_legs.setdefault(
            _leg_key(seq, leg.cache, leg.name, leg.rrtype),
            collections.deque()).append(leg)
        if change is None:
            self._untracked[index] = leg
            return
        change.unresolved[index] = leg
        change.send_indices.append(index)
        if change.pre_detect_caches is not None:
            change.pre_detect_caches.add(leg.cache)
        elif change.pending_holders:
            change.pending_holders.pop(leg.cache, None)

    def _on_retransmit(self, index: int, t: float,
                       fields: Dict[str, object]) -> None:
        leg = self._open_leg(fields)
        if leg is None:
            self._orphan(index, "retransmit without outstanding send")
            return
        attempt = int(fields.get("attempt", 0))
        if t < leg.send_t:
            self._permanent.append(retransmit_early_violation(
                leg.seq, leg.cache, t, leg.send_index, index))
        if attempt < 2:
            self._permanent.append(retransmit_attempt_violation(
                leg.seq, leg.cache, t, leg.send_index, index, attempt))

    def _on_ack(self, index: int, t: float,
                fields: Dict[str, object]) -> None:
        leg = self._open_leg(fields, resolve=True)
        if leg is None:
            self._orphan(index, "ack without outstanding send")
            return
        raw_rtt = fields.get("rtt")
        rtt = float(raw_rtt) if raw_rtt is not None else None
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
            # Untracked legs audit causality with default limits: no
            # staleness bound applies (matching _audit_untracked).
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
        if change.settled_index is not None:
            self._permanent.append(resolved_after_settled_violation(
                leg.seq, leg.cache, change.settled_t, index,
                change.settled_index))
        self._maybe_retire(change)

    def _on_timeout(self, index: int, t: float,
                    fields: Dict[str, object]) -> None:
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
        if change.settled_index is not None:
            self._permanent.append(resolved_after_settled_violation(
                leg.seq, leg.cache, change.settled_t, index,
                change.settled_index))
        self._maybe_retire(change)

    def _on_settled(self, index: int, t: float,
                    fields: Dict[str, object]) -> None:
        seq = _as_seq(fields)
        if not seq:
            self._orphan(index, "change.settled without seq")
            return
        change = self._change_for(seq)
        if change.settled_index is not None:
            self._orphan(index, f"duplicate change.settled seq={seq}")
            return
        change.settled_index = index
        change.settled_t = t
        window = fields.get("window")
        change.settled_window = \
            float(window) if window is not None else None
        acked = fields.get("acked")
        change.settled_acked = \
            int(acked) if acked is not None else None
        failed = fields.get("failed")
        change.settled_failed = \
            int(failed) if failed is not None else None
        self._maybe_retire(change)

    def _settlement_violations(self, change: _Change,
                               pending: bool = True) -> List[Violation]:
        """The settle event's bookkeeping vs the counts seen so far."""
        settled_index = change.settled_index
        assert settled_index is not None
        if pending:
            self._pending_check(STALENESS)
        else:
            self._check(STALENESS)
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

    def _maybe_retire(self, change: _Change) -> None:
        """Fold a settled, fully-resolved span into permanent state."""
        if change.retired or change.settled_index is None \
                or change.unresolved:
            return
        self._permanent.extend(
            self._settlement_violations(change, pending=False))
        if change.pending_holders:
            detected_index = change.detected_index
            assert detected_index is not None
            for cache, grant_index in change.pending_holders.items():
                self._permanent.append(unnotified_holder_violation(
                    change.seq, change.detected_t, detected_index,
                    grant_index, cache, change.name, change.rrtype))
        window_hist = self.window_hist
        if window_hist is not None:
            if change.detected_t is not None \
                    and change.ack_max is not None:
                window_hist.observe(change.ack_max - change.detected_t)
        change.retired = True
        change.pending_holders = None
        change.pre_detect_caches = None
        change.send_indices = []
        change.pre_detect_acks = []
        self._open_changes -= 1

    # -- lease + budget events -----------------------------------------------

    def _on_lease_start(self, event: str, index: int, t: float,
                        fields: Dict[str, object]) -> None:
        key: _LeaseKey = (str(fields.get("cache")),
                          str(fields.get("name")),
                          str(fields.get("rrtype")))
        length = float(fields.get("length", 0.0))
        current = self._leases.get(key)
        if event == LEASE_RENEW:
            if current is not None:
                # A renewal restarts the term from its own timestamp.
                current.start = t
                current.length = length
            else:
                # Renew without a live lease opens a fresh span, same
                # as build_spans' grant fallthrough.
                self._leases[key] = _Lease(
                    cache=key[0], grant_index=index, start=t,
                    length=length)
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
            return
        # LEASE_GRANT: supersedes any span still open on the pair.
        self._leases[key] = _Lease(cache=key[0], grant_index=index,
                                   start=t, length=length)
        self._budget_active += 1
        if self.limits.storage_budget is not None:
            self._check(BUDGET_STORAGE)
            if self._budget_active > self.limits.storage_budget:
                self._permanent.append(storage_budget_violation(
                    t, index, self._budget_active,
                    self.limits.storage_budget))

    def _on_lease_end(self, event: str, index: int,
                      fields: Dict[str, object]) -> None:
        key: _LeaseKey = (str(fields.get("cache")),
                          str(fields.get("name")),
                          str(fields.get("rrtype")))
        if self._leases.pop(key, None) is None:
            self._orphan(index, f"{event} without a live lease")
        self._budget_active = max(0, self._budget_active - 1)


__all__ = ["IncrementalAuditor", "StreamReport"]
