"""The live transport backend: real loopback sockets behind ``Host``.

:class:`AioNetwork` implements the :class:`~repro.net.network.Network`
surface — ``bind``/``send`` datagrams, ``bind_stream``/``send_stream``
reliable messages, the same :class:`~repro.net.network.NetworkStats`,
trace and capture hooks — on top of real OS sockets driven by an
:mod:`asyncio` event loop, so every component written against
:class:`~repro.net.host.Host`/:class:`~repro.net.host.Socket` (servers,
resolvers, the DNScup middleware, the push service) runs over the real
network without modification.

Address model: components keep their *logical* endpoints — the
``("192.168.1.10", 53)`` addresses of the Figure 7 topology — and the
network maps each bound logical endpoint to a real socket on
``127.0.0.1`` with an OS-assigned ephemeral port (bind port 0, read the
port back with ``getsockname``; see :func:`ephemeral_port`).  Received
traffic is translated back to logical endpoints before dispatch, so
:meth:`Socket.request`'s (source endpoint, message id) response
matching works identically on both backends, and live tests can never
collide on ports under parallel CI runs.

Transport shapes (after mercury-dsnc's ``dns/server/udp_server.py`` and
``request/connections/connection_pool.py``):

* **UDP** — one non-blocking datagram socket per bound endpoint,
  serviced by ``loop.add_reader``; sends go straight to ``sendto``
  (loopback never blocks in practice; a full buffer drops the datagram,
  which is exactly UDP semantics and is counted as a loss);
* **TCP** — one :func:`asyncio.start_server` acceptor per bound stream
  endpoint reading length-prefixed frames, plus a client-side
  :class:`StreamConnectionPool` that reuses idle connections per
  destination instead of reconnecting for every message.

Handler exceptions are captured and re-raised by the
:class:`~repro.net.clock.LiveClock` drain instead of disappearing into
asyncio's logger.
"""

from __future__ import annotations

import asyncio
import functools
import socket
from typing import Callable, Dict, List, Optional, Set, Tuple

from .clock import LiveClock
from .network import (
    DatagramHandler,
    Endpoint,
    NetworkError,
    NetworkStats,
    _ep,
)
from ..dnslib import MAX_UDP_PAYLOAD

#: The loopback address every real socket binds to.
LOOPBACK = "127.0.0.1"

#: recvfrom buffer: largest datagram we will ever see (EDNS0 ceiling).
_RECV_SIZE = 65535

#: Stream frame layout: 1-byte source-endpoint length, the source
#: endpoint as ``addr:port`` UTF-8, 4-byte payload length, payload.
_SRC_LEN_BYTES = 1
_PAYLOAD_LEN_BYTES = 4


def ephemeral_port(kind: str = "udp", host: str = LOOPBACK) -> int:
    """An OS-assigned free port: bind port 0, read the port back.

    Live tests that need a concrete port number use this instead of
    hard-coding one, so parallel CI runs never collide.  The socket is
    closed before returning; for collision-*proof* allocation prefer
    binding port 0 directly and keeping the socket, which is what
    :class:`AioNetwork` does for every real socket it opens.
    """
    sock_type = socket.SOCK_DGRAM if kind == "udp" else socket.SOCK_STREAM
    probe = socket.socket(socket.AF_INET, sock_type)
    try:
        probe.bind((host, 0))
        return int(probe.getsockname()[1])
    finally:
        probe.close()


_loopback_memo: Optional[bool] = None


def loopback_available() -> bool:
    """True when this OS allows loopback UDP plus asyncio readers.

    The live test suite and the CI ``live-transport`` job probe this
    once and skip gracefully on platforms where loopback sockets are
    restricted (sandboxes, some containers) or where the default event
    loop cannot watch datagram sockets (Windows proactor).
    """
    global _loopback_memo
    if _loopback_memo is not None:
        return _loopback_memo
    _loopback_memo = _probe_loopback()
    return _loopback_memo


def _probe_loopback() -> bool:
    a = b = None
    try:
        a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        a.bind((LOOPBACK, 0))
        b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        b.bind((LOOPBACK, 0))
        b.sendto(b"ping", a.getsockname())
        a.settimeout(2.0)
        if a.recvfrom(16)[0] != b"ping":
            return False
    except OSError:
        return False
    finally:
        for sock in (a, b):
            if sock is not None:
                sock.close()
    loop = asyncio.new_event_loop()
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.bind((LOOPBACK, 0))
        try:
            loop.add_reader(probe.fileno(), lambda: None)
            loop.remove_reader(probe.fileno())
        except NotImplementedError:
            return False
    except OSError:
        return False
    finally:
        probe.close()
        loop.close()
    return True


def _encode_frame(src: Endpoint, payload: bytes) -> bytes:
    """One length-prefixed stream frame carrying the logical source."""
    src_raw = _ep(src).encode("utf-8")
    if len(src_raw) > 0xFF:
        raise NetworkError(f"source endpoint too long to frame: {src}")
    return (len(src_raw).to_bytes(_SRC_LEN_BYTES, "big") + src_raw
            + len(payload).to_bytes(_PAYLOAD_LEN_BYTES, "big") + payload)


def _parse_endpoint(raw: str) -> Endpoint:
    addr, _, port = raw.rpartition(":")
    return (addr, int(port))


class _PooledConnection:
    """One open client connection owned by the pool."""

    __slots__ = ("reader", "writer")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer


class StreamConnectionPool:
    """Client-side TCP connections, pooled per destination.

    ``acquire`` hands back an idle connection to the destination when
    one exists, else opens a new one; ``release`` returns it for reuse.
    A connection that errors is discarded, never re-pooled.  The pool
    shape follows mercury-dsnc's ``connection_pool``: bounded idle list
    per destination, open-on-demand beyond it.
    """

    def __init__(self, max_idle_per_dst: int = 4):
        self.max_idle_per_dst = max_idle_per_dst
        self._idle: Dict[Tuple[str, int], List[_PooledConnection]] = {}
        self.opened = 0
        self.reused = 0

    async def acquire(self, real_dst: Tuple[str, int]) -> _PooledConnection:
        """An open connection to ``real_dst`` (pooled or fresh)."""
        idle = self._idle.get(real_dst)
        while idle:
            conn = idle.pop()
            if conn.writer.is_closing():
                continue
            self.reused += 1
            return conn
        reader, writer = await asyncio.open_connection(*real_dst)
        self.opened += 1
        return _PooledConnection(reader, writer)

    def release(self, real_dst: Tuple[str, int],
                conn: _PooledConnection) -> None:
        """Return a healthy connection for reuse (or close the surplus)."""
        idle = self._idle.setdefault(real_dst, [])
        if conn.writer.is_closing() or len(idle) >= self.max_idle_per_dst:
            conn.writer.close()
            return
        idle.append(conn)

    def discard(self, conn: _PooledConnection) -> None:
        """Close a connection that misbehaved; never re-pooled."""
        try:
            conn.writer.close()
        except OSError:  # pragma: no cover - close never raises on CPython
            pass

    async def aclose(self) -> None:
        """Close every idle connection."""
        for idle in self._idle.values():
            for conn in idle:
                conn.writer.close()
        self._idle.clear()

    @property
    def idle_count(self) -> int:
        """Idle pooled connections across all destinations."""
        return sum(len(conns) for conns in self._idle.values())


class _UdpPort:
    """One bound logical endpoint's real datagram socket."""

    __slots__ = ("network", "logical", "handler", "sock", "real")

    def __init__(self, network: "AioNetwork", logical: Endpoint,
                 handler: DatagramHandler):
        self.network = network
        self.logical = logical
        self.handler = handler
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.sock.setblocking(False)
            # Port 0: the OS assigns a free port, read back below — live
            # runs never collide on ports, even across parallel CI jobs.
            self.sock.bind((network.interface, 0))
            self.real: Tuple[str, int] = self.sock.getsockname()
            network.loop.add_reader(self.sock.fileno(), self._on_readable)
        except Exception:
            # The descriptor must not outlive a failed setup (DCUP012).
            self.sock.close()
            raise

    def _on_readable(self) -> None:
        while True:
            try:
                payload, real_src = self.sock.recvfrom(_RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            self.network._dispatch_udp(self, payload, real_src)

    def close(self) -> None:
        self.network.loop.remove_reader(self.sock.fileno())
        self.sock.close()


class _StreamPort:
    """One bound logical endpoint's TCP acceptor (frame server)."""

    __slots__ = ("network", "logical", "handler", "sock", "real", "server",
                 "_conn_tasks")

    def __init__(self, network: "AioNetwork", logical: Endpoint,
                 handler: DatagramHandler):
        self.network = network
        self.logical = logical
        self.handler = handler
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.sock.setblocking(False)
            self.sock.bind((network.interface, 0))
            self.sock.listen(16)
            self.real: Tuple[str, int] = self.sock.getsockname()
        except Exception:
            # The descriptor must not outlive a failed setup (DCUP012).
            self.sock.close()
            raise
        self.server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        # The listening socket exists as of now — connects succeed and
        # queue in the backlog; accepting starts once the (async)
        # server creation runs, at the latest on the next drain.
        network._defer(self._start())

    async def _start(self) -> None:
        if self.server is None and self.sock.fileno() != -1:
            self.server = await asyncio.start_server(self._on_connection,
                                                     sock=self.sock)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
            self.network._adopt(task)
        try:
            while True:
                src_len = int.from_bytes(
                    await reader.readexactly(_SRC_LEN_BYTES), "big")
                src_raw = (await reader.readexactly(src_len)).decode("utf-8")
                size = int.from_bytes(
                    await reader.readexactly(_PAYLOAD_LEN_BYTES), "big")
                payload = await reader.readexactly(size)
                self.network._dispatch_stream(self, payload,
                                              _parse_endpoint(src_raw))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer closed the connection: normal end of stream
        finally:
            writer.close()

    async def aclose(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None
        else:
            self.sock.close()
        for task in list(self._conn_tasks):
            task.cancel()

    def close_sync(self) -> None:
        """Best-effort teardown when the loop is not running."""
        if self.server is not None:
            self.server.close()
            self.server = None
        else:
            self.sock.close()
        for task in list(self._conn_tasks):
            task.cancel()


#: Content type served by :class:`TextExpositionPort` — the Prometheus
#: text exposition format version.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class TextExpositionPort:
    """A loopback HTTP endpoint serving one text document per request.

    The live telemetry plane (:mod:`repro.net.telemetry`) exposes the
    metrics registry through this: every GET answers with whatever the
    ``render`` callable returns, as ``HTTP/1.0 200`` with the
    Prometheus text-exposition content type, one response per
    connection (``Connection: close`` — the scrape pattern).  Binds
    port 0 like every other live socket; read :attr:`address` for the
    real ``(host, port)``.  A ``render`` exception answers 500 *and*
    surfaces through the clock's error probes, so a broken exposition
    fails the run instead of hiding in scrape noise.
    """

    __slots__ = ("network", "render", "sock", "address", "server",
                 "_conn_tasks")

    def __init__(self, network: "AioNetwork", render: Callable[[], str]):
        self.network = network
        self.render = render
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.sock.setblocking(False)
            self.sock.bind((network.interface, 0))
            self.sock.listen(16)
            self.address: Tuple[str, int] = self.sock.getsockname()
        except Exception:
            # The descriptor must not outlive a failed setup (DCUP012).
            self.sock.close()
            raise
        self.server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        network._defer(self._start())

    async def _start(self) -> None:
        if self.server is None and self.sock.fileno() != -1:
            self.server = await asyncio.start_server(self._on_connection,
                                                     sock=self.sock)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
            self.network._adopt(task)
        try:
            # Drain the request head (request line + headers); the
            # response is the same document whatever the path asked.
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            try:
                body = self.render().encode("utf-8")
                status = "200 OK"
            except Exception as exc:
                self.network._errors.append(exc)
                body = f"exposition render failed: {exc}\n".encode("utf-8")
                status = "500 Internal Server Error"
            head = (f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {EXPOSITION_CONTENT_TYPE}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n")
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # scraper went away mid-response: its loss
        finally:
            writer.close()

    async def aclose(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None
        else:
            self.sock.close()
        for task in list(self._conn_tasks):
            task.cancel()

    def close_sync(self) -> None:
        """Best-effort teardown when the loop is not running."""
        if self.server is not None:
            self.server.close()
            self.server = None
        else:
            self.sock.close()
        for task in list(self._conn_tasks):
            task.cancel()


class AioNetwork:
    """Real loopback sockets behind the :class:`Network` surface.

    Construct with the :class:`~repro.net.clock.LiveClock` that drives
    the run; the network registers its drain hooks (deferred stream
    server startup, in-flight stream writes, captured handler errors)
    with the clock so ``clock.run()`` accounts for transport work.

    The UDP payload limit is enforced exactly as in simulation — the
    §5.2 512-byte validation holds on the real wire too.
    """

    def __init__(self, clock: LiveClock,
                 enforce_udp_limit: bool = True,
                 udp_payload_limit: Optional[int] = None,
                 interface: str = LOOPBACK):
        self.simulator = clock
        self.loop = clock.loop
        self.interface = interface
        self.enforce_udp_limit = enforce_udp_limit
        self.udp_payload_limit = (udp_payload_limit
                                  if udp_payload_limit is not None
                                  else MAX_UDP_PAYLOAD)
        self.stats = NetworkStats()
        #: Observability hooks, identical contract to Network.trace /
        #: Network.capture: zero-cost when None.
        self.trace = None
        self.capture = None
        self.pool = StreamConnectionPool()
        self._udp: Dict[Endpoint, _UdpPort] = {}
        self._streams: Dict[Endpoint, _StreamPort] = {}
        self._expositions: List[TextExpositionPort] = []
        #: real UDP (addr, port) -> logical endpoint, for source mapping.
        self._logical_by_real: Dict[Tuple[str, int], Endpoint] = {}
        self._deferred: List["asyncio.Future[None]"] = []
        self._send_tasks: Set["asyncio.Task[None]"] = set()
        self._errors: List[BaseException] = []
        sanitizer = clock.sanitizer
        if sanitizer is not None:
            # The pool's mutable state is loop-owned: flag any release/
            # discard arriving from a foreign loop or thread (DCUP011).
            sanitizer.guard("net.pool", self.pool, ("release", "discard"))
        clock.add_service(prepare=self.start, busy=self._busy,
                          error=self._pop_error)

    # -- clock service hooks ---------------------------------------------------

    def _defer(self, coro) -> None:
        """Run ``coro`` now when the loop is live, else at next drain."""
        if self.loop.is_running():
            task = self.loop.create_task(coro)
            self._send_tasks.add(task)
            task.add_done_callback(self._finish_task)
        else:
            self._deferred.append(coro)

    async def start(self) -> None:
        """Finish deferred async setup (stream acceptors); idempotent."""
        deferred, self._deferred = self._deferred, []
        for coro in deferred:
            await coro

    def _busy(self) -> bool:
        return bool(self._send_tasks) or bool(self._deferred)

    def _pop_error(self) -> Optional[BaseException]:
        return self._errors.pop(0) if self._errors else None

    def _finish_task(self, task: "asyncio.Task[None]") -> None:
        self._send_tasks.discard(task)
        if not task.cancelled():
            exc = task.exception()
            if exc is not None:
                self._errors.append(exc)

    def _run_handler(self, handler: DatagramHandler, payload: bytes,
                     src: Endpoint, dst: Endpoint) -> None:
        """Invoke a delivery handler, timing the slice when sanitized."""
        sanitizer = self.simulator.sanitizer
        if sanitizer is not None:
            sanitizer.run_slice(
                functools.partial(handler, payload, src, dst))
        else:
            handler(payload, src, dst)

    def _adopt(self, task: "asyncio.Task[None]") -> None:
        """Mark a server-side connection task long-lived for the sanitizer.

        Idle pooled connections legitimately keep their server-side
        handler task alive across drains; without adoption the
        quiescence check would report each as a leak.
        """
        sanitizer = self.simulator.sanitizer
        if sanitizer is not None:
            sanitizer.adopt(task)

    # -- topology (Network surface) --------------------------------------------

    def bind(self, endpoint: Endpoint, handler: DatagramHandler) -> None:
        """Open a real datagram socket for ``endpoint``."""
        if endpoint in self._udp:
            raise NetworkError(f"endpoint already bound: {endpoint}")
        port = _UdpPort(self, endpoint, handler)
        self._udp[endpoint] = port
        self._logical_by_real[port.real] = endpoint

    def unbind(self, endpoint: Endpoint) -> None:
        """Close the endpoint's datagram socket, if bound."""
        port = self._udp.pop(endpoint, None)
        if port is not None:
            self._logical_by_real.pop(port.real, None)
            port.close()

    def is_bound(self, endpoint: Endpoint) -> bool:
        """True when a datagram socket is open for ``endpoint``."""
        return endpoint in self._udp

    def bind_stream(self, endpoint: Endpoint,
                    handler: DatagramHandler) -> None:
        """Open a TCP acceptor for ``endpoint``'s stream messages."""
        if endpoint in self._streams:
            raise NetworkError(f"stream endpoint already bound: {endpoint}")
        self._streams[endpoint] = _StreamPort(self, endpoint, handler)

    def unbind_stream(self, endpoint: Endpoint) -> None:
        """Close the endpoint's TCP acceptor, if bound."""
        port = self._streams.pop(endpoint, None)
        if port is None:
            return
        if self.loop.is_running():
            self._defer(port.aclose())
        else:
            port.close_sync()

    def expose_text(self, render: Callable[[], str]) -> TextExpositionPort:
        """Open a loopback HTTP endpoint serving ``render()`` per GET.

        The port is owned by the network: :meth:`aclose` tears it down
        with the rest of the sockets.  Returns the port; its
        ``address`` is the OS-assigned ``(host, port)`` to scrape.
        """
        port = TextExpositionPort(self, render)
        self._expositions.append(port)
        return port

    def set_link_profile(self, src_addr: str, dst_addr: str,
                         profile: object) -> None:
        """Live links cannot be shaped; loss/latency come from the OS."""
        raise NetworkError("AioNetwork cannot shape links: loss and "
                           "latency are properties of the real network")

    # -- datagram service ------------------------------------------------------

    def send(self, payload: bytes, src: Endpoint, dst: Endpoint) -> None:
        """One real datagram from ``src``'s socket to ``dst``'s."""
        if self.enforce_udp_limit and len(payload) > self.udp_payload_limit:
            raise NetworkError(
                f"datagram of {len(payload)} bytes exceeds the "
                f"{self.udp_payload_limit}-byte UDP limit")
        port = self._udp.get(src)
        if port is None:
            raise NetworkError(f"send from unbound endpoint: {src}")
        self.stats.datagrams_sent += 1
        self.stats.bytes_sent += len(payload)
        self.stats.max_datagram = max(self.stats.max_datagram, len(payload))
        real_dst = self._real_udp_for(dst)
        if real_dst is None:
            # No socket behind the logical destination: the live analogue
            # of port-unreachable, counted the same way as in simulation.
            self.stats.datagrams_unreachable += 1
            if self.trace is not None:
                self.trace.emit("net.unreachable", None, src, dst,
                                len(payload))
            if self.capture is not None:
                self.capture.record(self.simulator.now, "udp", src, dst,
                                    payload, "unreachable")
            return
        try:
            port.sock.sendto(payload, real_dst)
        except (BlockingIOError, OSError):
            # A full send buffer drops the datagram — that is UDP.
            self.stats.datagrams_lost += 1
            if self.trace is not None:
                self.trace.emit("net.drop", None, src, dst, len(payload))
            if self.capture is not None:
                self.capture.record(self.simulator.now, "udp", src, dst,
                                    payload, "dropped")

    def _real_udp_for(self, dst: Endpoint) -> Optional[Tuple[str, int]]:
        port = self._udp.get(dst)
        return port.real if port is not None else None

    def _dispatch_udp(self, port: _UdpPort, payload: bytes,
                      real_src: Tuple[str, int]) -> None:
        src = self._logical_by_real.get(real_src, real_src)
        dst = port.logical
        self.stats.datagrams_delivered += 1
        self.stats.bytes_delivered += len(payload)
        if self.trace is not None:
            self.trace.emit("net.deliver", None, src, dst, len(payload))
        if self.capture is not None:
            self.capture.record(self.simulator.now, "udp", src, dst,
                                payload, "delivered")
        try:
            self._run_handler(port.handler, payload, src, dst)
        except Exception as exc:  # surfaced by the clock's drain
            self._errors.append(exc)

    # -- reliable streams ------------------------------------------------------

    def send_stream(self, payload: bytes, src: Endpoint,
                    dst: Endpoint) -> None:
        """One framed message over a pooled TCP connection to ``dst``."""
        self.stats.stream_messages += 1
        self.stats.stream_bytes += len(payload)
        port = self._streams.get(dst)
        if port is None:
            if self.capture is not None:
                self.capture.record(self.simulator.now, "stream", src, dst,
                                    payload, "unreachable")
            return
        frame = _encode_frame(src, payload)
        self._defer(self._stream_write(port.real, frame, payload, src, dst))

    async def _stream_write(self, real_dst: Tuple[str, int], frame: bytes,
                            payload: bytes, src: Endpoint,
                            dst: Endpoint) -> None:
        try:
            conn = await self.pool.acquire(real_dst)
        except OSError:
            if self.capture is not None:
                self.capture.record(self.simulator.now, "stream", src, dst,
                                    payload, "unreachable")
            return
        try:
            conn.writer.write(frame)
            await conn.writer.drain()
        except (ConnectionError, OSError):
            self.pool.discard(conn)
            if self.capture is not None:
                self.capture.record(self.simulator.now, "stream", src, dst,
                                    payload, "unreachable")
            return
        self.pool.release(real_dst, conn)

    def _dispatch_stream(self, port: _StreamPort, payload: bytes,
                         src: Endpoint) -> None:
        dst = port.logical
        if self.capture is not None:
            self.capture.record(self.simulator.now, "stream", src, dst,
                                payload, "delivered")
        try:
            self._run_handler(port.handler, payload, src, dst)
        except Exception as exc:  # surfaced by the clock's drain
            self._errors.append(exc)

    # -- lifecycle -------------------------------------------------------------

    async def aclose(self) -> None:
        """Close every socket, acceptor, and pooled connection."""
        for endpoint in list(self._udp):
            self.unbind(endpoint)
        streams, self._streams = list(self._streams.values()), {}
        for port in streams:
            await port.aclose()
        expositions, self._expositions = self._expositions, []
        for exposition in expositions:
            await exposition.aclose()
        for task in list(self._send_tasks):
            task.cancel()
        self._send_tasks.clear()
        deferred, self._deferred = self._deferred, []
        for coro in deferred:
            coro.close()  # never ran; close instead of leaking a warning
        await self.pool.aclose()

    def close(self) -> None:
        """Synchronous :meth:`aclose` for teardown outside the loop."""
        if self.loop.is_closed():
            return
        self.loop.run_until_complete(self.aclose())
