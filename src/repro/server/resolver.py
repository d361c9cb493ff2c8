"""The local DNS nameserver: recursive resolution + cache + DNScup client.

This is the paper's "DNS cache" — the local nameserver whose clients are
tightly coupled with some Internet server.  It answers client stub queries
on port 53, resolves iteratively from the root hints, caches with TTLs
(weak consistency, the baseline), and — when ``dnscup_enabled`` — speaks
the DNScup extensions:

* outgoing iterative queries carry the RRC field with the locally
  observed client query rate for that record;
* a response granting a lease (LLT field) pins the cache entry as
  *coherent* until the lease expires;
* incoming CACHE-UPDATE messages (opcode 6) from authoritative servers
  overwrite the cached RRset in place and are acknowledged (paper
  Figure 3, steps 3–4).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..dnslib import (
    MAX_UDP_PAYLOAD,
    Keyring,
    Message,
    Name,
    Opcode,
    Question,
    Rcode,
    ResourceRecord,
    RRType,
    SOA,
    TsigError,
    Verifier,
    WireFormatError,
    make_cache_update_ack,
    make_query,
    make_response,
    records_to_rrsets,
    sign,
    split_signed,
    truncate_response,
)
from ..net import Endpoint, Host, RetryPolicy, Socket
from .cache import ResolverCache
from .rates import WindowedRate, rate_to_rrc

#: Terminal callback: (records, rcode).  Records empty on failure.
ResolveCallback = Callable[[List[ResourceRecord], Rcode], None]

MAX_CNAME_DEPTH = 8
MAX_REFERRALS = 16
MAX_GLUELESS_DEPTH = 3
DEFAULT_NEGATIVE_TTL = 300


@dataclasses.dataclass
class ResolverStats:
    """Counters exposed for tests, benchmarks and operators."""
    client_queries: int = 0
    cache_answers: int = 0
    upstream_queries: int = 0
    resolutions_completed: int = 0
    resolutions_failed: int = 0
    leases_received: int = 0
    cache_updates_received: int = 0
    cache_updates_acked: int = 0
    cache_updates_ignored: int = 0
    #: §5.3 secure mode: signature failures / unsigned-but-required drops.
    tsig_failures: int = 0
    tsig_rejected_unsigned: int = 0
    #: Truncated UDP responses retried over the reliable-stream path.
    tcp_fallbacks: int = 0


@dataclasses.dataclass
class LeaseGrantInfo:
    """What the resolver remembers about one granted lease."""

    origin: Endpoint        # the authoritative server that granted it
    granted_at: float
    llt: float              # granted lease length, seconds
    rate_at_grant: float    # local query rate reported at grant time


class RecursiveResolver:
    """A caching local nameserver with optional DNScup support."""

    def __init__(self, host: Host, root_hints: List[Endpoint],
                 cache: Optional[ResolverCache] = None,
                 dnscup_enabled: bool = False,
                 rrc_window: float = 3600.0,
                 retry: Optional[RetryPolicy] = None,
                 tsig_keyring: Optional[Keyring] = None,
                 tsig_require: bool = False,
                 edns_payload: Optional[int] = None):
        if not root_hints:
            raise ValueError("resolver needs at least one root hint")
        if edns_payload is not None and edns_payload < 512:
            raise ValueError("EDNS payload below the RFC 6891 floor")
        if tsig_require and tsig_keyring is None:
            raise ValueError("tsig_require needs a keyring")
        self.host = host
        self.root_hints = list(root_hints)
        self.cache = cache or ResolverCache()
        self.dnscup_enabled = dnscup_enabled
        self.retry = retry or RetryPolicy()
        #: §5.3 secure mode: verify CACHE-UPDATE signatures against this
        #: keyring; with ``tsig_require`` unsigned pushes are dropped.
        self.tsig_keyring = tsig_keyring
        self.tsig_require = tsig_require
        self._tsig_verifier = (Verifier(tsig_keyring)
                               if tsig_keyring is not None else None)
        self.stats = ResolverStats()
        self.rates: WindowedRate = WindowedRate(window=rrc_window)
        #: (name, type) -> grant bookkeeping for renegotiation (§5.1.2).
        self.lease_grants: Dict[Tuple[Name, RRType], "LeaseGrantInfo"] = {}
        #: Smoothed per-server RTT, BIND-style: fastest server first.
        self.server_rtts: Dict[Endpoint, float] = {}
        #: EDNS0: payload size advertised on upstream queries (None =
        #: classic 512-byte DNS).
        self.edns_payload = edns_payload
        self.service_socket: Socket = host.dns_socket()
        self.service_socket.on_receive(self._handle_datagram)
        self.service_socket.on_receive_stream(self._handle_stream_datagram)
        self.upstream_socket: Socket = host.socket()

    @property
    def now(self) -> float:
        """Current simulation time, seconds."""
        return self.host.simulator.now

    # -- client-facing service ------------------------------------------------

    def _handle_datagram(self, payload: bytes, src: Endpoint,
                         dst: Endpoint) -> None:
        signed_with: Optional[Name] = None
        try:
            stripped, tsig_fields = split_signed(payload)
        except TsigError:
            # Magic bytes occurred inside an ordinary message: not TSIG.
            stripped, tsig_fields = payload, None
        if tsig_fields is not None:
            if self._tsig_verifier is None:
                return  # signed message on an unsigned resolver: drop
            try:
                stripped = self._tsig_verifier.verify(payload, self.now)
            except TsigError:
                self.stats.tsig_failures += 1
                return
            signed_with = tsig_fields["key_name"]
        payload = stripped
        try:
            message = Message.from_wire(payload)
            opcode = message.opcode  # an unassigned opcode is dropped too
        except (WireFormatError, ValueError):
            return
        if opcode == Opcode.CACHE_UPDATE and not message.is_response:
            if self.tsig_require and signed_with is None:
                self.stats.tsig_rejected_unsigned += 1
                return  # no ack: the pusher will retry and give up
            self._handle_cache_update(message, src, signed_with)
            return
        if message.is_response or opcode != Opcode.QUERY:
            return
        self._serve_client(message, src, stream=False)

    def _handle_stream_datagram(self, payload: bytes, src: Endpoint,
                                dst: Endpoint) -> None:
        """Client queries retried over the stream path after truncation."""
        try:
            message = Message.from_wire(payload)
            opcode = message.opcode  # an unassigned opcode is dropped too
        except (WireFormatError, ValueError):
            return
        if message.is_response or opcode != Opcode.QUERY:
            return
        self._serve_client(message, src, stream=True)

    def _serve_client(self, message: Message, src: Endpoint,
                      stream: bool) -> None:
        if len(message.question) != 1:
            response = make_response(message, Rcode.FORMERR)
            self.service_socket.send(response.to_wire(), src)
            return
        question = message.question[0]

        def deliver(records: List[ResourceRecord], rcode: Rcode) -> None:
            response = make_response(message, rcode)
            response.recursion_available = True
            response.answer.extend(records)
            wire = response.to_wire()
            if stream:
                self.service_socket.send_stream(wire, src)
                return
            if len(wire) > MAX_UDP_PAYLOAD:
                wire = truncate_response(response).to_wire()
            self.service_socket.send(wire, src)

        self.stats.client_queries += 1
        self.resolve(question.name, question.rrtype, deliver)

    # -- public resolution API ------------------------------------------------------

    def resolve(self, name, rrtype: RRType, callback: ResolveCallback) -> None:
        """Resolve ``name``/``rrtype``, from cache or iteratively."""
        question = Question(name, rrtype)
        self.rates.record(question.key()[:2], self.now)
        cached = self._answer_from_cache(question.name, rrtype)
        if cached is not None:
            records, rcode = cached
            self.stats.cache_answers += 1
            callback(records, rcode)
            return
        task = _ResolutionTask(self, question, callback)
        task.start()

    def _answer_from_cache(self, name: Name, rrtype: RRType
                           ) -> Optional[Tuple[List[ResourceRecord], Rcode]]:
        """Follow cached CNAMEs to a cached terminal answer, else None."""
        records: List[ResourceRecord] = []
        qname = name
        for _ in range(MAX_CNAME_DEPTH):
            entry = self.cache.get(qname, rrtype, self.now)
            if entry is not None:
                if entry.negative:
                    return records, Rcode.NXDOMAIN if not records else Rcode.NOERROR
                records.extend(self._ttl_adjusted(entry))
                return records, Rcode.NOERROR
            if rrtype != RRType.CNAME:
                cname_entry = self.cache.get(qname, RRType.CNAME, self.now)
                if cname_entry is not None and not cname_entry.negative:
                    records.extend(self._ttl_adjusted(cname_entry))
                    qname = cname_entry.rrset.rdatas[0].target  # type: ignore
                    continue
            return None
        return None

    def _ttl_adjusted(self, entry) -> List[ResourceRecord]:
        remaining = entry.remaining_ttl(self.now)
        if remaining <= 0 and entry.has_lease(self.now):
            remaining = 1  # coherent-by-lease; keep clients from caching long
        return [ResourceRecord(r.name, r.rrtype, remaining, r.rdata, r.rrclass)
                for r in entry.rrset.to_records()]

    # -- DNScup: CACHE-UPDATE handling -------------------------------------------------

    def _handle_cache_update(self, message: Message, src: Endpoint,
                             signed_with: Optional[Name] = None) -> None:
        self.stats.cache_updates_received += 1
        applied_any = False
        for rrset in records_to_rrsets(message.answer):
            if self.cache.apply_cache_update(rrset, self.now):
                applied_any = True
        if not message.answer and message.question:
            # An empty-answer update is a deletion push: the record named
            # in the question no longer exists — drop the cached copy so
            # the next lookup refetches (and learns the NXDOMAIN).
            question = message.question[0]
            if self.cache.remove(question.name, question.rrtype):
                applied_any = True
        if applied_any:
            self.stats.cache_updates_acked += 1
        else:
            self.stats.cache_updates_ignored += 1
        # Acknowledge regardless: the server needs to stop retransmitting.
        # On a signed exchange the ack is signed with the same key.
        ack_wire = make_cache_update_ack(message).to_wire()
        if signed_with is not None and self.tsig_keyring is not None:
            key = self.tsig_keyring.get(signed_with)
            if key is not None:
                ack_wire = sign(ack_wire, key, self.now)
        self.service_socket.send(ack_wire, src)

    # -- cache insertion used by resolution tasks ----------------------------------------

    def _store_answer(self, question: Question, response: Message,
                      server: Endpoint) -> None:
        llt = response.llt if self.dnscup_enabled else None
        for rrset in records_to_rrsets(response.answer):
            lease_until = None
            if llt and rrset.name == question.name and rrset.rrtype == question.rrtype:
                lease_until = self.now + llt
                key = (rrset.name, rrset.rrtype)
                self.lease_grants[key] = LeaseGrantInfo(
                    origin=server, granted_at=self.now, llt=float(llt),
                    rate_at_grant=self.rates.rate(key, self.now))
                self.stats.leases_received += 1
            self.cache.put(rrset, self.now, lease_until=lease_until)

    def _store_negative(self, question: Question, response: Message) -> None:
        ttl = DEFAULT_NEGATIVE_TTL
        for record in response.authority:
            if record.rrtype == RRType.SOA and isinstance(record.rdata, SOA):
                ttl = min(record.ttl, record.rdata.minimum)
                break
        self.cache.put_negative(question.name, question.rrtype, ttl, self.now)

    def _rrc_for(self, question: Question) -> Optional[int]:
        if not self.dnscup_enabled:
            return None
        rate = self.rates.rate(question.key()[:2], self.now)
        return rate_to_rrc(rate)

    # -- server selection (smoothed RTT, as BIND does) -----------------------------------

    #: Exponential smoothing factor for RTT samples.
    RTT_SMOOTHING = 0.3
    #: Penalty floor applied when a server times out.
    RTT_TIMEOUT_FLOOR = 0.5

    def order_servers(self, servers: List[Endpoint]) -> List[Endpoint]:
        """Fastest-first ordering; unknown servers sort first so they
        get probed (optimistic exploration, like a fresh BIND cache)."""
        return sorted(servers, key=lambda s: self.server_rtts.get(s, -1.0))

    def record_rtt(self, server: Endpoint, rtt: float) -> None:
        """Fold one RTT sample into the server's smoothed estimate."""
        old = self.server_rtts.get(server)
        if old is None or old < 0:
            self.server_rtts[server] = rtt
        else:
            self.server_rtts[server] = \
                (1 - self.RTT_SMOOTHING) * old + self.RTT_SMOOTHING * rtt

    def record_timeout(self, server: Endpoint) -> None:
        """Push a dead-looking server to the back of the ordering."""
        old = self.server_rtts.get(server, self.RTT_TIMEOUT_FLOOR)
        self.server_rtts[server] = max(old, self.RTT_TIMEOUT_FLOOR) * 2


class _ResolutionTask:
    """One iterative resolution, written in continuation style."""

    def __init__(self, resolver: RecursiveResolver, question: Question,
                 callback: ResolveCallback, depth: int = 0):
        self.resolver = resolver
        self.question = question
        self.callback = callback
        self.depth = depth
        self.servers: List[Endpoint] = resolver.order_servers(
            list(resolver.root_hints))
        self.server_index = 0
        self.referrals = 0
        self.collected: List[ResourceRecord] = []

    # -- driving ----------------------------------------------------------------

    def start(self) -> None:
        """Begin the resolution by querying the first server."""
        self._query_next_server()

    def _fail(self, rcode: Rcode = Rcode.SERVFAIL) -> None:
        self.resolver.stats.resolutions_failed += 1
        self.callback(list(self.collected), rcode)

    def _succeed(self, rcode: Rcode = Rcode.NOERROR) -> None:
        self.resolver.stats.resolutions_completed += 1
        self.callback(list(self.collected), rcode)

    def _query_next_server(self) -> None:
        if self.server_index >= len(self.servers):
            self._fail()
            return
        server = self.servers[self.server_index]
        self.server_index += 1
        rrc = self.resolver._rrc_for(self.question)
        query = make_query(self.question.name, self.question.rrtype,
                           recursion_desired=False, rrc=rrc)
        query.edns_payload_size = self.resolver.edns_payload
        self.resolver.stats.upstream_queries += 1
        sent_at = self.resolver.now
        self.resolver.upstream_socket.request(
            query.to_wire(), server, query.id,
            lambda payload, src, s=server, t=sent_at:
            self._on_timed_response(payload, src, s, t),
            retry=self.resolver.retry)

    def _on_timed_response(self, payload: Optional[bytes],
                           src: Optional[Endpoint], server: Endpoint,
                           sent_at: float) -> None:
        if payload is None:
            self.resolver.record_timeout(server)
        else:
            self.resolver.record_rtt(server, self.resolver.now - sent_at)
        self._on_response(payload, src, server)

    # -- response classification ---------------------------------------------------

    def _on_response(self, payload: Optional[bytes], src: Optional[Endpoint],
                     server: Endpoint, via_stream: bool = False) -> None:
        if payload is None:
            self._query_next_server()
            return
        try:
            response = Message.from_wire(payload)
        except (WireFormatError, ValueError):
            self._query_next_server()
            return
        if response.truncated and not via_stream:
            # RFC 1035: the UDP answer did not fit — retry over the
            # reliable-stream (TCP) path against the same server.
            self.resolver.stats.tcp_fallbacks += 1
            retry = make_query(self.question.name, self.question.rrtype,
                               recursion_desired=False,
                               rrc=self.resolver._rrc_for(self.question))
            self.resolver.upstream_socket.request_stream(
                retry.to_wire(), server, retry.id,
                lambda p, s: self._on_response(p, s, server,
                                               via_stream=True))
            return
        if response.rcode == Rcode.NXDOMAIN:
            self.resolver._store_negative(self.question, response)
            self.collected.extend(response.answer)
            self._succeed(Rcode.NXDOMAIN)
            return
        if response.rcode != Rcode.NOERROR:
            self._query_next_server()
            return
        if response.answer:
            self._on_answer(response, server)
            return
        ns_records = [r for r in response.authority if r.rrtype == RRType.NS]
        if ns_records and not response.authoritative:
            self._on_referral(response, ns_records)
            return
        # Authoritative empty answer: NODATA.
        self.resolver._store_negative(self.question, response)
        self._succeed(Rcode.NOERROR)

    def _on_answer(self, response: Message, server: Endpoint) -> None:
        self.resolver._store_answer(self.question, response, server)
        self.collected.extend(response.answer)
        final = any(r.rrtype == self.question.rrtype and r.name == self.question.name
                    for r in response.answer)
        if final or self.question.rrtype == RRType.CNAME:
            self._succeed()
            return
        cnames = [r for r in response.answer
                  if r.rrtype == RRType.CNAME]
        if not cnames:
            self._succeed()
            return
        target = self._chase_cname_target(cnames)
        if target is None:
            # The chain's terminal record arrived in this same answer
            # (the server followed the CNAME for us): we are done.
            self._succeed()
            return
        if self.depth + 1 >= MAX_CNAME_DEPTH:
            self._fail()
            return
        # The answer ended in a CNAME pointing outside this server's zones:
        # restart resolution for the target, accumulating records.
        sub = _ResolutionTask(
            self.resolver,
            Question(target, self.question.rrtype),
            self._on_cname_resolved,
            depth=self.depth + 1)
        sub.start()

    def _chase_cname_target(self, cnames: List[ResourceRecord]) -> Optional[Name]:
        """Follow the CNAME chain in this answer to its last target."""
        mapping = {r.name: r.rdata.target for r in cnames}  # type: ignore[attr-defined]
        target = self.question.name
        for _ in range(len(mapping) + 1):
            if target not in mapping:
                break
            target = mapping[target]
        answered = {(r.name, r.rrtype) for r in self.collected}
        if (target, self.question.rrtype) in answered:
            return None
        return target

    def _on_cname_resolved(self, records: List[ResourceRecord],
                           rcode: Rcode) -> None:
        self.collected.extend(records)
        if rcode == Rcode.NOERROR and records:
            self._succeed()
        else:
            self._fail(rcode if rcode != Rcode.NOERROR else Rcode.SERVFAIL)

    # -- referrals -----------------------------------------------------------------

    def _on_referral(self, response: Message, ns_records: List[ResourceRecord]) -> None:
        self.referrals += 1
        if self.referrals > MAX_REFERRALS:
            self._fail()
            return
        glue: Dict[Name, str] = {}
        for record in response.additional:
            if record.rrtype == RRType.A:
                glue[record.name] = record.rdata.address  # type: ignore[attr-defined]
        addresses = [glue[r.rdata.target] for r in ns_records  # type: ignore[attr-defined]
                     if r.rdata.target in glue]
        if addresses:
            self.servers = self.resolver.order_servers(
                [(addr, 53) for addr in addresses])
            self.server_index = 0
            self._query_next_server()
            return
        # Glueless delegation: resolve the first NS target's address.
        if self.depth + 1 > MAX_GLUELESS_DEPTH:
            self._fail()
            return
        ns_name = ns_records[0].rdata.target  # type: ignore[attr-defined]
        sub = _ResolutionTask(self.resolver, Question(ns_name, RRType.A),
                              self._on_glue_resolved, depth=self.depth + 1)
        sub.start()

    def _on_glue_resolved(self, records: List[ResourceRecord],
                          rcode: Rcode) -> None:
        addresses = [r.rdata.address for r in records  # type: ignore[attr-defined]
                     if r.rrtype == RRType.A]
        if rcode != Rcode.NOERROR or not addresses:
            self._fail()
            return
        self.servers = self.resolver.order_servers(
            [(addr, 53) for addr in addresses])
        self.server_index = 0
        self._query_next_server()
