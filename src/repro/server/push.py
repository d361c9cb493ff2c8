"""A DNS-Push-style comparator (RFC 8765 simplified).

DNS Push Notifications are the closest deployed relative of DNScup:
clients *subscribe* to a record over a long-lived connection and the
server pushes every change for as long as the subscription lives.  The
paper predates RFC 8765; we implement a minimal version as a comparison
baseline for the evaluation:

* a cache subscribes once per record of interest (over the reliable
  stream path — real DNS Push runs over TLS/TCP);
* the server keeps per-subscription state *indefinitely* (until an
  explicit unsubscribe or connection loss), pushing on every change;
* periodic keepalives hold the connection state alive.

Contrast with DNScup's dynamic lease: subscriptions give the same
strong consistency but the server's tracking state never decays, and
each subscription costs keepalive traffic forever.  The comparison
bench quantifies exactly that trade-off.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..dnslib import (
    Message,
    Name,
    Opcode,
    Question,
    RRType,
    WireFormatError,
    WireTemplate,
    make_cache_update,
    make_cache_update_ack,
    make_query,
    make_response,
    records_to_rrsets,
)
from ..dnslib.message import next_message_id
from ..net import Endpoint, PeriodicTimer, Socket
from ..zone import Zone, ZoneChange

#: Subscriptions are (subscriber endpoint, owner name, rrtype).
SubscriptionKey = Tuple[Endpoint, Name, RRType]


@dataclasses.dataclass
class PushServiceStats:
    """Counters exposed for tests, benchmarks and operators."""
    subscriptions: int = 0
    unsubscriptions: int = 0
    pushes_sent: int = 0
    keepalives_sent: int = 0
    #: Full wire encodes (one per changed RRset, shared by subscribers).
    wire_encodes: int = 0


class PushService:
    """Server side: subscription registry + change push over streams."""

    def __init__(self, socket: Socket, zones: List[Zone],
                 keepalive_interval: Optional[float] = 600.0,
                 trace=None):
        self.socket = socket
        self.stats = PushServiceStats()
        #: Optional :class:`repro.obs.TraceBus` receiving ``push.*``
        #: events; costs nothing while None.
        self.trace = trace
        self._subscribers: Dict[Tuple[Name, RRType], Set[Endpoint]] = {}
        self._zones = list(zones)
        for zone in self._zones:
            zone.add_change_listener(self._on_zone_change)
        self._keepalive_timer = None
        if keepalive_interval:
            self._keepalive_timer = PeriodicTimer(
                socket.simulator, keepalive_interval, self._send_keepalives)

    # -- subscription management ------------------------------------------------

    def subscribe(self, subscriber: Endpoint, name, rrtype: RRType) -> None:
        """Register ``subscriber`` for pushes on (name, type)."""
        from ..dnslib import as_name
        key = (as_name(name), RRType(rrtype))
        holders = self._subscribers.setdefault(key, set())
        if subscriber not in holders:
            holders.add(subscriber)
            self.stats.subscriptions += 1

    def unsubscribe(self, subscriber: Endpoint, name, rrtype: RRType) -> bool:
        """Remove a subscription; returns True when it existed."""
        from ..dnslib import as_name
        key = (as_name(name), RRType(rrtype))
        holders = self._subscribers.get(key, set())
        if subscriber in holders:
            holders.remove(subscriber)
            self.stats.unsubscriptions += 1
            return True
        return False

    def subscriber_count(self) -> int:
        """Total live subscription state — the storage metric."""
        return sum(len(holders) for holders in self._subscribers.values())

    # -- change fan-out --------------------------------------------------------------

    def _on_zone_change(self, zone: Zone, changes: List[ZoneChange]) -> None:
        for name, rrtype, _old, new in changes:
            if rrtype == RRType.SOA:
                continue
            holders = self._subscribers.get((name, rrtype), set())
            if not holders:
                continue
            records = new.to_records() if new is not None else []
            # Encode once per changed RRset; patch only the per-push ID.
            message = make_cache_update(name, list(records))
            message.question[0].rrtype = rrtype
            self.stats.wire_encodes += 1
            template = WireTemplate(message)
            for subscriber in holders:
                self.stats.pushes_sent += 1
                if self.trace is not None:
                    self.trace.emit("push.send", None, subscriber, name,
                                    rrtype)
                self.socket.send_stream(
                    template.with_id(next_message_id()), subscriber)

    def _send_keepalives(self) -> None:
        """One keepalive per subscriber connection per interval."""
        connections = {subscriber
                       for holders in self._subscribers.values()
                       for subscriber in holders}
        if connections and self.trace is not None:
            self.trace.emit("push.keepalive", None, len(connections))
        for subscriber in connections:
            ping = make_query("keepalive.push.", RRType.TXT,
                              recursion_desired=False)
            self.stats.keepalives_sent += 1
            self.socket.send_stream(ping.to_wire(), subscriber)


@dataclasses.dataclass
class PushSubscriberStats:
    """Counters exposed for tests, benchmarks and operators."""
    pushes_received: int = 0
    keepalives_received: int = 0


class PushSubscriber:
    """Cache side: receives pushes on a dedicated stream endpoint."""

    def __init__(self, socket: Socket,
                 apply_fn: Callable[[Name, RRType, list], None]):
        self.socket = socket
        self.apply_fn = apply_fn
        self.stats = PushSubscriberStats()
        socket.on_receive_stream(self._on_stream)

    @property
    def endpoint(self) -> Endpoint:
        """The (address, port) this component is bound to."""
        return self.socket.endpoint

    def _on_stream(self, payload: bytes, src: Endpoint, dst: Endpoint) -> None:
        try:
            message = Message.from_wire(payload)
        except (WireFormatError, ValueError):
            return
        if message.opcode == Opcode.CACHE_UPDATE and not message.is_response:
            self.stats.pushes_received += 1
            question = message.question[0]
            rrsets = records_to_rrsets(message.answer)
            self.apply_fn(question.name, question.rrtype, rrsets)
            self.socket.send_stream(
                make_cache_update_ack(message).to_wire(), src)
            return
        self.stats.keepalives_received += 1
