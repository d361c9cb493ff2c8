"""The notification module: pushes CACHE-UPDATE messages to leased caches.

When the detection module reports a record change, this module reads the
track file for the caches whose leases are still valid and sends each a
CACHE-UPDATE (opcode 6) over UDP carrying the new RRset (paper Figure 3,
steps 3–4).  UDP may drop the datagram, so every notification is
retransmitted on a backoff schedule until the cache's acknowledgement
arrives or the attempt budget is exhausted; unacknowledged caches are
recorded — their entries will fall back to TTL expiry, which is DNScup's
graceful degradation to weak consistency.

Deletions are pushed as an update carrying the (empty-answer) new state:
the cache learns the name is gone rather than serving the stale mapping.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from ..dnslib import (
    Key,
    Keyring,
    Message,
    Name,
    Opcode,
    Rcode,
    RRType,
    TsigError,
    Verifier,
    WireFormatError,
    WireTemplate,
    make_cache_update,
    sign,
)
from ..dnslib.message import next_message_id
from ..net import Endpoint, RetryPolicy, Socket
from .detection import RecordChange
from .lease import LeaseTable


@dataclasses.dataclass
class NotificationStats:
    """Counters exposed for tests, benchmarks and operators."""
    changes_processed: int = 0
    notifications_sent: int = 0
    acks_received: int = 0
    failures: int = 0
    caches_notified: int = 0
    #: Notifications sent but not yet acknowledged or given up on — a
    #: gauge, not a counter: it falls back to zero as acks arrive.
    in_flight: int = 0
    #: Datagram retransmissions performed by the retry schedule.
    retransmissions: int = 0
    #: Full wire encodes performed (one per changed RRset); the
    #: difference against ``notifications_sent`` is encodes the
    #: template fan-out saved.
    wire_encodes: int = 0
    #: Notifications suppressed because no valid lease existed.
    no_holders: int = 0
    #: Acks dropped because their TSIG failed verification (§5.3 mode).
    ack_tsig_failures: int = 0


@dataclasses.dataclass(frozen=True)
class NotificationOutcome:
    """Result of fanning one change out to one cache."""

    __slots__ = ("cache", "name", "rrtype", "acked", "rtt")

    cache: Endpoint
    name: Name
    rrtype: RRType
    acked: bool
    rtt: Optional[float]


class _ChangeProgress:
    """Settle tracking for one detected change's fan-out."""

    __slots__ = ("detected_at", "outstanding", "acked", "failed", "last_ack")

    def __init__(self, detected_at: float, outstanding: int):
        self.detected_at = detected_at
        self.outstanding = outstanding
        self.acked = 0
        self.failed = 0
        self.last_ack: Optional[float] = None


class NotificationModule:
    """CACHE-UPDATE fan-out with per-cache retransmission."""

    def __init__(self, socket: Socket, table: LeaseTable,
                 retry: Optional[RetryPolicy] = None,
                 tsig_key: Optional[Key] = None):
        self.socket = socket
        #: The simulator (or live clock) driving this component.
        self.simulator = socket.simulator
        self.table = table
        self.retry = retry or RetryPolicy(initial_timeout=1.0, max_attempts=4)
        self.stats = NotificationStats()
        self.outcomes: List[NotificationOutcome] = []
        #: Caches that failed to ack their most recent notification.
        self.unreachable: Set[Endpoint] = set()
        #: Observability hooks, attached by the middleware: a
        #: :class:`repro.obs.TraceBus` for ``notify.*`` /
        #: ``change.settled`` events and two
        #: :class:`repro.obs.Histogram` instruments.
        self.trace = None
        self.ack_rtt_hist = None
        self.window_hist = None
        #: Load-attribution hook (a per-server
        #: :class:`repro.obs.load.LoadRecorder`): first transmissions
        #: are notify-class load with the in-flight depth sampled,
        #: retransmissions retransmit-class (PROTOCOL §9.5).
        self.load_ledger = None
        #: Per-change fan-out progress, keyed by the detection seq; used
        #: to measure the consistency window (change detected -> last
        #: lease holder acknowledged).  Untracked changes (seq 0) skip it.
        self._progress: Dict[int, _ChangeProgress] = {}
        #: §5.3 secure mode: sign CACHE-UPDATEs and require signed acks.
        self.tsig_key = tsig_key
        self._ack_verifier: Optional[Verifier] = None
        if tsig_key is not None:
            keyring = Keyring()
            keyring.add(tsig_key)
            self._ack_verifier = Verifier(keyring)

    # -- the detection sink -----------------------------------------------------

    def on_change(self, change: RecordChange) -> None:
        """Detection-module sink: fan this change out to lease holders.

        The CACHE-UPDATE wire image is encoded *once* per changed RRset;
        each leaseholder's copy differs only in its message ID, which is
        patched into the shared template in place.
        """
        stats = self.stats
        stats.changes_processed += 1
        now = self.simulator.now
        name, rrtype, seq = change.name, change.rrtype, change.seq
        holders = self.table.holders(name, rrtype, now)
        if not holders:
            stats.no_holders += 1
            return
        records = change.new.to_records() if change.new is not None else []
        template = self._encode_template(name, rrtype, records)
        if template is None:
            return
        if seq:
            self._progress[seq] = _ChangeProgress(
                change.detected_at, len(holders))
        for lease in holders:
            self._notify(lease.cache, name, rrtype, template, seq)

    def _encode_template(self, name: Name, rrtype: RRType,
                         records) -> Optional[WireTemplate]:
        """One shared wire encoding of this change's CACHE-UPDATE."""
        message = make_cache_update(name, list(records))
        if not message.question:
            return None
        # A deletion carries no records, so the question type falls back
        # to A in make_cache_update; force the real type.
        message.question[0].rrtype = rrtype
        self.stats.wire_encodes += 1
        return WireTemplate(message)

    def _notify(self, cache: Endpoint, name: Name, rrtype: RRType,
                template: WireTemplate, seq: int = 0) -> None:
        msg_id = next_message_id()
        # Read per leg: on a wall clock the fan-out loop takes time.
        sent_at = self.simulator.now
        stats = self.stats
        stats.notifications_sent += 1
        stats.caches_notified += 1
        stats.in_flight += 1
        if self.load_ledger is not None:
            self.load_ledger.record(name.to_text(), "notify", sent_at,
                                    depth=stats.in_flight)
        if self.trace is not None:
            self.trace.emit("notify.send", sent_at, seq, cache, name, rrtype,
                            msg_id)
        wire = template.with_id(msg_id)
        if self.tsig_key is not None:
            # Signing covers the patched ID, so each recipient's TSIG is
            # computed over its own datagram (no MAC sharing).
            wire = sign(wire, self.tsig_key, sent_at)
        leg = _Leg(self, cache, name, rrtype, sent_at, seq, msg_id)
        self.socket.request(wire, cache, msg_id, leg.on_ack,
                            retry=self.retry, on_attempt=leg.on_attempt)

    def _settle(self, seq: int, acked: bool,
                at: Optional[float] = None) -> None:
        """Progress one change's fan-out; on the last resolution, measure
        the consistency window (detection -> last holder acknowledged).

        ``at`` is the clock reading already stamped on the triggering
        ``notify.ack`` event: reusing the same float (instead of reading
        the clock again) keeps ``last_ack`` exactly equal to the recorded
        ack time, so the audit's window recomputation holds bit-for-bit
        on wall clocks too, where two reads are never the same instant.
        """
        progress = self._progress.get(seq) if seq else None
        if progress is None:
            return
        now = at if at is not None else self.simulator.now
        progress.outstanding -= 1
        if acked:
            progress.acked += 1
            progress.last_ack = now
        else:
            progress.failed += 1
        if progress.outstanding > 0:
            return
        del self._progress[seq]
        window = (progress.last_ack - progress.detected_at
                  if progress.last_ack is not None else None)
        if window is not None and self.window_hist is not None:
            self.window_hist.observe(window)
        if self.trace is not None:
            self.trace.emit("change.settled", now, seq, window,
                            progress.acked, progress.failed)

    # -- reporting ------------------------------------------------------------------

    def ack_ratio(self) -> float:
        """Acknowledged notifications / attempted notifications.

        In-flight notifications count as attempted-but-unacknowledged,
        so a mid-run reading is well-defined instead of optimistically
        reporting 1.0 before the first ack or failure lands.
        """
        total = (self.stats.acks_received + self.stats.failures
                 + self.stats.in_flight)
        return self.stats.acks_received / total if total else 1.0

    def mean_ack_rtt(self) -> Optional[float]:
        """Mean round-trip of acknowledged notifications, or None."""
        rtts = [o.rtt for o in self.outcomes if o.rtt is not None]
        return sum(rtts) / len(rtts) if rtts else None


@dataclasses.dataclass(eq=False)
class _Leg:
    """One notification in flight: the state behind the two callbacks
    :meth:`Socket.request` holds.  A slotted record rather than two
    closures, pointing back at nothing in flight, so it is freed by
    reference count when the request settles.
    """

    __slots__ = ("module", "cache", "name", "rrtype", "sent_at", "seq",
                 "msg_id")

    module: NotificationModule
    cache: Endpoint
    name: Name
    rrtype: RRType
    sent_at: float
    seq: int
    msg_id: int

    def on_attempt(self, attempt: int) -> None:
        """Count (and attribute) every transmission after the first."""
        if attempt <= 1:
            return
        module = self.module
        module.stats.retransmissions += 1
        if module.load_ledger is not None:
            module.load_ledger.record(self.name.to_text(), "retransmit",
                                      module.simulator.now,
                                      depth=module.stats.in_flight)
        if module.trace is not None:
            module.trace.emit("notify.retransmit", None, self.seq,
                              self.cache, self.name, self.rrtype,
                              self.msg_id, attempt)

    def on_ack(self, payload: Optional[bytes],
               src: Optional[Endpoint]) -> None:
        """The matched reply, or ``(None, None)`` once retries ran out."""
        module = self.module
        stats = module.stats
        stats.in_flight -= 1
        if payload is None:
            self._fail("timeout")
            module.unreachable.add(self.cache)
            return
        if module._ack_verifier is not None:
            try:
                payload = module._ack_verifier.verify(payload,
                                                      module.simulator.now)
            except TsigError:
                stats.ack_tsig_failures += 1
                self._fail("tsig")
                return
        try:
            ack = Message.from_wire(payload)
            # The socket matched the reply by source and message ID
            # only; it acknowledges the update only if it says so.
            acknowledged = (ack.is_response
                            and ack.opcode is Opcode.CACHE_UPDATE
                            and ack.rcode is Rcode.NOERROR)
        except (WireFormatError, ValueError):
            self._fail("malformed")
            return
        if not acknowledged:
            # NOTIMP, REFUSED, FORMERR, a plain QUERY response: a cache
            # that does not speak DNScup did not apply the update.
            self._fail("rejected")
            return
        now = module.simulator.now
        rtt = now - self.sent_at
        cache, name, rrtype = self.cache, self.name, self.rrtype
        stats.acks_received += 1
        module.unreachable.discard(cache)
        module.outcomes.append(NotificationOutcome(
            cache, name, rrtype, acked=True, rtt=rtt))
        if module.ack_rtt_hist is not None:
            module.ack_rtt_hist.observe(rtt)
        if module.trace is not None:
            module.trace.emit("notify.ack", now, self.seq, cache, name,
                              rrtype, rtt)
        module._settle(self.seq, acked=True, at=now)

    def _fail(self, reason: str) -> None:
        module = self.module
        module.stats.failures += 1
        module.outcomes.append(NotificationOutcome(
            self.cache, self.name, self.rrtype, acked=False, rtt=None))
        if module.trace is not None:
            module.trace.emit("notify.timeout", None, self.seq, self.cache,
                              self.name, self.rrtype, reason)
        module._settle(self.seq, acked=False)
