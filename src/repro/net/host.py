"""Simulated hosts and sockets.

A :class:`Host` owns one address on the :class:`~repro.net.network.Network`
and hands out :class:`Socket` objects bound to ports.  The request/response
pattern every DNS agent needs — send a datagram, match the reply by message
ID, retry on timeout — lives in :class:`Socket.request`, so servers and
resolvers stay free of transport bookkeeping.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .network import DatagramHandler, DNS_PORT, Endpoint, Network, NetworkError
from .simulator import EventHandle, Simulator
from .timers import RetryPolicy

#: Response callbacks receive (payload, source) or (None, None) on timeout.
ResponseHandler = Callable[[Optional[bytes], Optional[Endpoint]], None]

#: The ephemeral port range (IANA dynamic ports), both ends included.
EPHEMERAL_FIRST = 49152
EPHEMERAL_LAST = 65535


class Socket:
    """A bound UDP socket with request/response matching."""

    def __init__(self, host: "Host", port: int):
        self.host = host
        self.port = port
        #: The (address, port) this socket is bound to.
        self.endpoint: Endpoint = (host.address, port)
        #: The network carrying this socket's traffic.
        self.network = host.network
        self._receive_handler: Optional[DatagramHandler] = None
        self._stream_handler: Optional[DatagramHandler] = None
        self._pending: Dict[Tuple[Endpoint, int], "_PendingRequest"] = {}
        self.network.bind(self.endpoint, self._on_datagram)
        self.network.bind_stream(self.endpoint, self._on_stream)

    @property
    def simulator(self) -> Simulator:
        """The simulator driving this component."""
        return self.network.simulator

    def close(self) -> None:
        """Release all bindings and pending state."""
        for pending in list(self._pending.values()):
            pending.cancel()
        self._pending.clear()
        self.network.unbind(self.endpoint)
        self.network.unbind_stream(self.endpoint)
        if self.host._sockets.get(self.port) is self:
            del self.host._sockets[self.port]

    # -- plain datagrams --------------------------------------------------------

    def on_receive(self, handler: DatagramHandler) -> None:
        """Handler for datagrams that are not matched responses."""
        self._receive_handler = handler

    def send(self, payload: bytes, dst: Endpoint) -> None:
        """Send one datagram to ``dst``."""
        self.network.send(payload, self.endpoint, dst)

    # -- request/response ---------------------------------------------------------

    def request(self, payload: bytes, dst: Endpoint, match_id: int,
                handler: ResponseHandler,
                retry: Optional[RetryPolicy] = None,
                on_attempt: Optional[Callable[[int], None]] = None) -> None:
        """Send ``payload`` and route the matching response to ``handler``.

        Responses are matched by (source endpoint, ``match_id``) where the
        ID is read from the first two payload bytes — the DNS message ID.
        On exhaustion of the retry budget the handler gets ``(None, None)``.
        ``on_attempt`` is invoked with the 1-based attempt number on each
        transmission — attempt 2 and up are retransmissions — letting
        callers observe their retry traffic without owning the timer.
        """
        key = (dst, match_id)
        if key in self._pending:
            raise NetworkError(f"duplicate outstanding request: {key}")
        pending = self._pending[key] = _PendingRequest(
            self, payload, dst, match_id, handler, retry or RetryPolicy(),
            on_attempt)
        pending.send_attempt()

    def _on_datagram(self, payload: bytes, src: Endpoint, dst: Endpoint) -> None:
        # Only DNS *responses* (QR bit set, high bit of byte 2) can settle
        # a pending request; a server-initiated query (e.g. CACHE-UPDATE)
        # that happens to reuse an ID must fall through to the handler.
        if len(payload) >= 3 and payload[2] & 0x80:
            msg_id = payload[0] << 8 | payload[1]
            pending = self._pending.pop((src, msg_id), None)
            if pending is not None:
                pending.complete(payload, src)
                return
        if self._receive_handler is not None:
            self._receive_handler(payload, src, dst)

    # -- reliable streams (DNS-over-TCP path) ------------------------------

    def on_receive_stream(self, handler: DatagramHandler) -> None:
        """Handler for unmatched stream messages (a server's TCP side)."""
        self._stream_handler = handler

    def send_stream(self, payload: bytes, dst: Endpoint) -> None:
        """Send one reliable-stream message to ``dst``."""
        self.network.send_stream(payload, self.endpoint, dst)

    def request_stream(self, payload: bytes, dst: Endpoint, match_id: int,
                       handler: ResponseHandler,
                       timeout: float = 10.0) -> None:
        """One reliable request/response exchange (no retransmission)."""
        key = (dst, match_id)
        if key in self._pending:
            raise NetworkError(f"duplicate outstanding request: {key}")
        pending = self._pending[key] = _PendingRequest(
            self, payload, dst, match_id, handler,
            RetryPolicy(initial_timeout=timeout, max_attempts=1),
            stream=True)
        pending.send_attempt()

    def _on_stream(self, payload: bytes, src: Endpoint, dst: Endpoint) -> None:
        if len(payload) >= 3 and payload[2] & 0x80:
            msg_id = payload[0] << 8 | payload[1]
            pending = self._pending.pop((src, msg_id), None)
            if pending is not None:
                pending.complete(payload, src)
                return
        if self._stream_handler is not None:
            self._stream_handler(payload, src, dst)
        elif self._receive_handler is not None:
            self._receive_handler(payload, src, dst)


class _PendingRequest:
    """Bookkeeping for one in-flight request with retransmission."""

    __slots__ = ("socket", "payload", "dst", "match_id", "handler",
                 "policy", "on_attempt", "stream", "attempt", "_timer")

    def __init__(self, socket: Socket, payload: bytes, dst: Endpoint,
                 match_id: int, handler: ResponseHandler, policy: RetryPolicy,
                 on_attempt: Optional[Callable[[int], None]] = None,
                 stream: bool = False):
        self.socket = socket
        self.payload = payload
        self.dst = dst
        self.match_id = match_id
        self.handler = handler
        self.policy = policy
        self.on_attempt = on_attempt
        self.stream = stream
        self.attempt = 0
        self._timer: Optional[EventHandle] = None

    def send_attempt(self) -> None:
        """Transmit (or retransmit) the request payload."""
        attempt = self.attempt = self.attempt + 1
        if self.on_attempt is not None:
            self.on_attempt(attempt)
        socket = self.socket
        if self.stream:
            socket.send_stream(self.payload, self.dst)
        else:
            socket.send(self.payload, self.dst)
        self._timer = socket.network.simulator.schedule(
            self.policy.timeout_for(attempt), self._on_timeout)

    def _on_timeout(self) -> None:
        if self.attempt < self.policy.max_attempts:
            self.send_attempt()
            return
        # The fired handle still holds this bound method: drop it, or
        # the request is a cycle only the collector can free.
        self._timer = None
        self.socket._pending.pop((self.dst, self.match_id), None)
        self.handler(None, None)

    def complete(self, payload: bytes, src: Endpoint) -> None:
        """Settle the request with a received response."""
        if self._timer is not None:
            self._timer.cancel()
        self.handler(payload, src)

    def cancel(self) -> None:
        """Abandon the request; no callback will fire."""
        if self._timer is not None:
            self._timer.cancel()


class Host:
    """One addressable machine in the simulated network."""

    def __init__(self, network: Network, address: str):
        self.network = network
        self.address = address
        self._sockets: Dict[int, Socket] = {}
        self._ephemeral = EPHEMERAL_FIRST

    def socket(self, port: Optional[int] = None) -> Socket:
        """Bind a socket; ``port=None`` picks an ephemeral port."""
        if port is None:
            port = self._ephemeral_port()
        sock = Socket(self, port)
        self._sockets[port] = sock
        return sock

    def _ephemeral_port(self) -> int:
        """The next free ephemeral port, scanning on from the last one
        handed out and wrapping at the top of the range."""
        for _ in range(EPHEMERAL_FIRST, EPHEMERAL_LAST + 1):
            port = self._ephemeral
            self._ephemeral = (port + 1 if port < EPHEMERAL_LAST
                               else EPHEMERAL_FIRST)
            if not self.network.is_bound((self.address, port)):
                return port
        raise NetworkError("ephemeral port space exhausted")

    def dns_socket(self) -> Socket:
        """The well-known DNS service socket (port 53)."""
        return self.socket(DNS_PORT)

    @property
    def simulator(self) -> Simulator:
        """The simulator driving this component."""
        return self.network.simulator

    def close(self) -> None:
        """Release all bindings and pending state."""
        for sock in list(self._sockets.values()):
            sock.close()
        self._sockets.clear()

    def __repr__(self) -> str:
        return f"Host({self.address!r}, sockets={sorted(self._sockets)})"
