"""The authoritative nameserver.

Serves one or more zones over the simulated network: answers, referrals,
NXDOMAIN/NODATA with negative-caching SOAs, CNAME following within a
zone, RFC 2136 UPDATE processing (masters only), and NOTIFY fan-out to
slaves after every committed change.

DNScup attaches through two hook points kept deliberately narrow so the
base server stays protocol-pure (the paper's "unchanged named modules",
Figure 6):

* ``query_hooks`` — called with (query, source, response) after a
  response is built and before it is sent; the listening module reads
  the RRC field here and may grant a lease by setting ``response.llt``;
* ``Zone.add_change_listener`` — the detection module subscribes to the
  zones directly.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..dnslib import (
    MAX_UDP_PAYLOAD,
    Message,
    Name,
    Opcode,
    Question,
    Rcode,
    ResourceRecord,
    RRType,
    WireFormatError,
    make_notify,
    make_response,
    truncate_response,
)
from ..net import Endpoint, Host, RetryPolicy, Socket
from ..zone import UpdateProcessor, Zone, ZoneMaster, ZoneSlave
from .cache import ResolverCache  # noqa: F401  (re-exported for convenience)

QueryHook = Callable[[Message, Endpoint, Message], None]

#: How many CNAME links a single answer may follow inside one zone.
MAX_CNAME_CHAIN = 8

#: The payload size this server advertises and honours for EDNS0 peers
#: (RFC 6891 deployments commonly use 1232-4096; we pick 4096).
EDNS_SERVER_PAYLOAD = 4096


@dataclasses.dataclass
class ServerStats:
    """Counters exposed for tests, benchmarks and operators."""
    queries: int = 0
    answers: int = 0
    referrals: int = 0
    nxdomains: int = 0
    nodatas: int = 0
    updates: int = 0
    updates_rejected: int = 0
    notifies_sent: int = 0
    malformed: int = 0
    #: UDP responses truncated to the 512-byte limit (TC bit set).
    truncated: int = 0
    #: Queries answered over the reliable-stream (TCP) path.
    stream_queries: int = 0


class AuthoritativeServer:
    """An authoritative DNS server bound to a host's port 53."""

    def __init__(self, host: Host, zones: Optional[List[Zone]] = None,
                 rotate_answers: bool = False):
        self.host = host
        self.socket: Socket = host.dns_socket()
        self.socket.on_receive(self._handle_datagram)
        self.socket.on_receive_stream(self._handle_stream)
        self.stats = ServerStats()
        self.query_hooks: List[QueryHook] = []
        self._zones: Dict[Name, Zone] = {}
        self._masters: Dict[Name, ZoneMaster] = {}
        self._slaves: Dict[Name, List[Tuple[Endpoint, ZoneSlave]]] = {}
        self.allow_updates = True
        #: Round-robin answer rotation (BIND's cyclic rrset-order): each
        #: answer for a multi-address RRset starts at the next address.
        self.rotate_answers = rotate_answers
        self._rotation_counters: Dict[Tuple[Name, RRType], int] = {}
        for zone in zones or []:
            self.add_zone(zone)

    # -- zone management -----------------------------------------------------

    def add_zone(self, zone: Zone, master: bool = True) -> None:
        """Serve ``zone``; masters get transfer and change tracking."""
        if zone.origin in self._zones:
            raise ValueError(f"zone already served: {zone.origin}")
        self._zones[zone.origin] = zone
        if master:
            self._masters[zone.origin] = ZoneMaster(zone)
            zone.add_change_listener(self._on_zone_change)

    def zone_for(self, name: Name) -> Optional[Zone]:
        """The closest enclosing zone this server is authoritative for."""
        # Longest suffix first, so the first origin found is the closest:
        # at most one probe per label however many zones are served.
        for ancestor in name.ancestors():
            zone = self._zones.get(ancestor)
            if zone is not None:
                return zone
        return None

    @property
    def zones(self) -> List[Zone]:
        """Every zone this server is configured with."""
        return list(self._zones.values())

    def master_for(self, origin: Name) -> Optional[ZoneMaster]:
        """The transfer master for ``origin``, when we are one."""
        return self._masters.get(origin)

    # -- replication -------------------------------------------------------------

    def register_slave(self, origin: Name, endpoint: Endpoint,
                       slave: ZoneSlave) -> None:
        """Declare a slave server for NOTIFY fan-out.

        The ``slave`` handle applies transfers out-of-band (AXFR runs over
        TCP in real deployments; we model the data path directly and the
        trigger path — NOTIFY over UDP — on the wire).
        """
        if origin not in self._masters:
            raise ValueError(f"not a master for {origin}")
        self._slaves.setdefault(origin, []).append((endpoint, slave))

    def _on_zone_change(self, zone: Zone, changes) -> None:
        for endpoint, _slave in self._slaves.get(zone.origin, []):
            notify = make_notify(zone.origin)
            self.stats.notifies_sent += 1
            self.socket.request(notify.to_wire(), endpoint, notify.id,
                                self._ignore_response,
                                retry=RetryPolicy(max_attempts=3))

    @staticmethod
    def _ignore_response(payload, src) -> None:
        return None

    # -- datagram dispatch ----------------------------------------------------------

    def _handle_datagram(self, payload: bytes, src: Endpoint,
                         dst: Endpoint) -> None:
        processed = self._process(payload, src)
        if processed is None:
            return
        request, response = processed
        # EDNS0: honour the client's advertised payload size (capped by
        # our own) and advertise ours back; classic clients get 512.
        limit = MAX_UDP_PAYLOAD
        if request.edns_payload_size is not None:
            limit = min(request.edns_payload_size, EDNS_SERVER_PAYLOAD)
            limit = max(limit, MAX_UDP_PAYLOAD)  # RFC 6891 floor
            response.edns_payload_size = EDNS_SERVER_PAYLOAD
        wire = response.to_wire()
        if len(wire) > limit:
            # RFC 1035 §4.2.1: truncate to the header+question and set
            # TC; the client retries over the reliable-stream path.
            wire = truncate_response(response).to_wire()
            self.stats.truncated += 1
        self.socket.send(wire, src)

    def _handle_stream(self, payload: bytes, src: Endpoint,
                       dst: Endpoint) -> None:
        self.stats.stream_queries += 1
        processed = self._process(payload, src)
        if processed is not None:
            self.socket.send_stream(processed[1].to_wire(), src)

    def _process(self, payload: bytes, src: Endpoint
                 ) -> Optional[Tuple[Message, Message]]:
        try:
            message = Message.from_wire(payload)
        except (WireFormatError, ValueError):
            self.stats.malformed += 1
            return None
        if message.is_response:
            return None  # unmatched response: stale retransmission, drop
        if message.opcode == Opcode.QUERY:
            return message, self.handle_query(message, src)
        if message.opcode == Opcode.UPDATE:
            return message, self.handle_update(message, src)
        if message.opcode == Opcode.NOTIFY:
            return message, self.handle_notify(message, src)
        return message, make_response(message, Rcode.NOTIMP)

    # -- QUERY ----------------------------------------------------------------------

    def handle_query(self, query: Message, src: Endpoint) -> Message:
        """Answer one QUERY message (RFC 1034 resolution logic)."""
        self.stats.queries += 1
        if len(query.question) != 1:
            return make_response(query, Rcode.FORMERR)
        question = query.question[0]
        zone = self.zone_for(question.name)
        if zone is None:
            return make_response(query, Rcode.REFUSED)
        response = self._answer_from_zone(zone, query, question)
        for hook in self.query_hooks:
            hook(query, src, response)
        return response

    def _answer_from_zone(self, zone: Zone, query: Message,
                          question: Question) -> Message:
        delegation = zone.find_delegation(question.name)
        if delegation is not None:
            return self._referral(zone, query, delegation)
        response = make_response(query)
        response.authoritative = True
        qname = question.name
        for _ in range(MAX_CNAME_CHAIN):
            rrset = zone.get_rrset(qname, question.rrtype)
            if rrset is None and not zone.has_name(qname):
                rrset = self._wildcard_match(zone, qname, question.rrtype)
            if rrset is not None:
                response.answer.extend(
                    self._rotated_records(qname, question.rrtype, rrset))
                self.stats.answers += 1
                self._add_glue_for_answer(zone, rrset, response)
                return response
            cname = zone.get_rrset(qname, RRType.CNAME)
            if cname is not None and question.rrtype != RRType.CNAME:
                response.answer.extend(cname.to_records())
                target = cname.rdatas[0].target  # type: ignore[attr-defined]
                if not zone.contains_name(target):
                    self.stats.answers += 1
                    return response
                qname = target
                continue
            break
        soa_rrset = zone.get_rrset(zone.origin, RRType.SOA)
        if soa_rrset is not None:
            response.authority.extend(soa_rrset.to_records())
        if zone.has_name(qname):
            self.stats.nodatas += 1
            response.rcode = Rcode.NOERROR
        else:
            self.stats.nxdomains += 1
            response.rcode = Rcode.NXDOMAIN
        return response

    def _wildcard_match(self, zone: Zone, qname: Name, rrtype: RRType):
        """RFC 1034 §4.3.3 wildcard synthesis.

        When ``qname`` does not exist, the closest-encloser's ``*``
        child (if any) answers for it, with records rewritten to the
        query name.  A wildcard never matches a name that exists.
        """
        if not zone.contains_name(qname) or qname == zone.origin:
            return None
        for ancestor in qname.parent().ancestors():
            wildcard = zone.get_rrset(ancestor.child("*"), rrtype)
            if wildcard is not None:
                from ..dnslib import RRSet
                return RRSet(qname, rrtype, wildcard.ttl, wildcard.rdatas,
                             wildcard.rrclass)
            if zone.has_name(ancestor) or ancestor == zone.origin:
                # Closest encloser reached without a wildcard: stop.
                return None
        return None

    def _rotated_records(self, qname: Name, rrtype: RRType, rrset):
        records = rrset.to_records()
        if self.rotate_answers and len(records) > 1:
            key = (qname, rrtype)
            offset = self._rotation_counters.get(key, 0) % len(records)
            self._rotation_counters[key] = offset + 1
            records = records[offset:] + records[:offset]
        return records

    def _referral(self, zone: Zone, query: Message, delegation) -> Message:
        response = make_response(query)
        response.authoritative = False
        response.authority.extend(delegation.to_records())
        for rdata in delegation.rdatas:
            target = rdata.target
            if zone.contains_name(target):
                glue = zone.get_rrset(target, RRType.A)
                if glue is not None:
                    response.additional.extend(glue.to_records())
        self.stats.referrals += 1
        return response

    def _add_glue_for_answer(self, zone: Zone, rrset, response: Message) -> None:
        if rrset.rrtype != RRType.NS:
            return
        for rdata in rrset.rdatas:
            if zone.contains_name(rdata.target):
                glue = zone.get_rrset(rdata.target, RRType.A)
                if glue is not None:
                    response.additional.extend(glue.to_records())

    # -- UPDATE ------------------------------------------------------------------------

    def handle_update(self, message: Message, src: Endpoint) -> Message:
        """Process one RFC 2136 UPDATE message."""
        self.stats.updates += 1
        if not self.allow_updates:
            self.stats.updates_rejected += 1
            return make_response(message, Rcode.REFUSED)
        if len(message.zone) != 1:
            return make_response(message, Rcode.FORMERR)
        origin = message.zone[0].name
        zone = self._zones.get(origin)
        if zone is None or origin not in self._masters:
            self.stats.updates_rejected += 1
            return make_response(message, Rcode.NOTAUTH)
        return UpdateProcessor(zone).process(message)

    # -- NOTIFY ----------------------------------------------------------------------

    def handle_notify(self, message: Message, src: Endpoint) -> Message:
        """Slaves receiving NOTIFY pull a refresh from their master."""
        response = make_response(message)
        origin = message.question[0].name if message.question else None
        if origin is None:
            response.rcode = Rcode.FORMERR
            return response
        refresher = getattr(self, "_notify_refresher", None)
        if refresher is not None:
            refresher(origin)
        return response

    def set_notify_refresher(self, refresher: Callable[[Name], None]) -> None:
        """Install the slave-side refresh action run on NOTIFY arrival."""
        self._notify_refresher = refresher
