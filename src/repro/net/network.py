"""Simulated UDP networking: endpoints, latency, loss, duplication.

DNScup deliberately rides on UDP (paper §1): notifications are cheap but
unreliable, so the protocol needs acknowledgements and retransmission.
The :class:`Network` here models exactly the properties that matter —
per-packet delay drawn from a :class:`LatencyModel`, independent loss and
duplication probabilities, and a hard 512-byte payload check mirroring
RFC 1035's UDP limit (oversized datagrams raise unless the check is
relaxed, the way EDNS0 would).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, Optional, Tuple

from ..dnslib import MAX_UDP_PAYLOAD
from .simulator import Simulator

#: An endpoint is (address, port); addresses are opaque strings.
Endpoint = Tuple[str, int]

#: Receive callbacks get (payload, source, destination).
DatagramHandler = Callable[[bytes, Endpoint, Endpoint], None]

#: The standard DNS port, used throughout the server layer.
DNS_PORT = 53


class NetworkError(RuntimeError):
    """Raised on misuse: double binds, oversized datagrams, unknown hosts."""


def _ep(endpoint: Endpoint) -> str:
    """Trace-friendly ``addr:port`` form of an endpoint."""
    return f"{endpoint[0]}:{endpoint[1]}"


class LatencyModel:
    """One-way delay generator.

    ``base`` is the propagation floor; ``jitter`` adds a uniform random
    component.  Subclass and override :meth:`sample` for heavier tails.
    """

    def __init__(self, base: float = 0.01, jitter: float = 0.0):
        if base < 0 or jitter < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base = base
        self.jitter = jitter

    def sample(self, rng: random.Random) -> float:
        """Draw one delay from the model."""
        if self.jitter == 0.0:
            return self.base
        return self.base + rng.uniform(0.0, self.jitter)


class LognormalLatency(LatencyModel):
    """Heavy-tailed WAN-like delay: base + lognormal(mu, sigma)."""

    def __init__(self, base: float = 0.01, mu: float = -4.0, sigma: float = 1.0):
        super().__init__(base=base, jitter=0.0)
        self.mu = mu
        self.sigma = sigma

    def sample(self, rng: random.Random) -> float:
        """Draw one delay from the model."""
        return self.base + rng.lognormvariate(self.mu, self.sigma)


@dataclasses.dataclass
class LinkStats:
    """Per-:class:`LinkProfile` datagram fates (plain attributes for tests;
    mirrored into the metrics registry by the observability layer)."""

    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    unreachable: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)


@dataclasses.dataclass
class LinkProfile:
    """Loss/latency characteristics of one directed host pair (or default)."""

    latency: LatencyModel = dataclasses.field(default_factory=LatencyModel)
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    #: Fate counters for traffic carried by this profile.  Excluded from
    #: init/compare so ``dataclasses.replace`` starts fresh counters.
    stats: LinkStats = dataclasses.field(default_factory=LinkStats,
                                         init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate out of [0,1): {self.loss_rate}")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError(f"duplicate_rate out of [0,1): {self.duplicate_rate}")


@dataclasses.dataclass
class NetworkStats:
    """Counters the benchmarks read off after a run."""

    datagrams_sent: int = 0
    datagrams_delivered: int = 0
    datagrams_lost: int = 0
    datagrams_duplicated: int = 0
    #: Datagrams that arrived at an endpoint nobody was bound to.
    datagrams_unreachable: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    #: Largest datagram seen — checked against the 512-byte RFC 1035
    #: bound the DNScup prototype validates (paper §5.2).
    max_datagram: int = 0
    #: Reliable-stream (TCP-like) messages, used for truncation fallback.
    stream_messages: int = 0
    stream_bytes: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)


class Network:
    """The shared medium connecting every simulated host."""

    def __init__(self, simulator: Simulator, seed: int = 0,
                 default_profile: Optional[LinkProfile] = None,
                 enforce_udp_limit: bool = True,
                 udp_payload_limit: Optional[int] = None):
        self.simulator = simulator
        self.rng = random.Random(seed)
        self.default_profile = default_profile or LinkProfile()
        self.enforce_udp_limit = enforce_udp_limit
        #: Largest permitted UDP payload.  Defaults to the classic
        #: 512-byte RFC 1035 bound; EDNS0 deployments raise it.
        self.udp_payload_limit = (udp_payload_limit
                                  if udp_payload_limit is not None
                                  else MAX_UDP_PAYLOAD)
        self.stats = NetworkStats()
        self._bindings: Dict[Endpoint, DatagramHandler] = {}
        self._stream_bindings: Dict[Endpoint, DatagramHandler] = {}
        self._profiles: Dict[Tuple[str, str], LinkProfile] = {}
        #: Observability hooks (both off by default and zero-cost when
        #: off): a :class:`repro.obs.TraceBus` receiving ``net.*``
        #: transport events, and a :class:`repro.obs.WireCapture`
        #: recording every datagram's fate.  Attached by
        #: :meth:`repro.obs.Observability.observe_network`.
        self.trace = None
        self.capture = None

    # -- topology ------------------------------------------------------------

    def bind(self, endpoint: Endpoint, handler: DatagramHandler) -> None:
        """Attach ``handler`` to receive datagrams addressed to ``endpoint``."""
        if endpoint in self._bindings:
            raise NetworkError(f"endpoint already bound: {endpoint}")
        self._bindings[endpoint] = handler

    def unbind(self, endpoint: Endpoint) -> None:
        """Remove a datagram binding, if present."""
        self._bindings.pop(endpoint, None)

    def is_bound(self, endpoint: Endpoint) -> bool:
        """True when a handler is bound to ``endpoint``."""
        return endpoint in self._bindings

    def set_link_profile(self, src_addr: str, dst_addr: str,
                         profile: LinkProfile) -> None:
        """Override link characteristics for one directed address pair."""
        self._profiles[(src_addr, dst_addr)] = profile

    def _profile_for(self, src: Endpoint, dst: Endpoint) -> LinkProfile:
        return self._profiles.get((src[0], dst[0]), self.default_profile)

    # -- datagram service --------------------------------------------------------

    def send(self, payload: bytes, src: Endpoint, dst: Endpoint) -> None:
        """Fire-and-forget datagram; may be lost, delayed or duplicated.

        The link profile is resolved here, once, and travels with the
        datagram: every fate, including the delivered/unreachable one
        decided on arrival, is charged to the profile in force when the
        datagram was sent.
        """
        size = len(payload)
        if size > self.udp_payload_limit and self.enforce_udp_limit:
            raise NetworkError(
                f"datagram of {size} bytes exceeds the "
                f"{self.udp_payload_limit}-byte UDP limit"
            )
        stats = self.stats
        stats.datagrams_sent += 1
        stats.bytes_sent += size
        if size > stats.max_datagram:
            stats.max_datagram = size
        # No pair lookup at all on a network without per-pair profiles.
        profile = (self._profile_for(src, dst) if self._profiles
                   else self.default_profile)
        rng = self.rng
        copies = 1
        if profile.duplicate_rate and rng.random() < profile.duplicate_rate:
            copies = 2
            stats.datagrams_duplicated += 1
            profile.stats.duplicated += 1
            if self.trace is not None:
                self.trace.emit("net.duplicate", None, src, dst, size)
        for copy in range(copies):
            if profile.loss_rate and rng.random() < profile.loss_rate:
                stats.datagrams_lost += 1
                profile.stats.dropped += 1
                if self.trace is not None:
                    self.trace.emit("net.drop", None, src, dst, size)
                if self.capture is not None:
                    self.capture.record(self.simulator.now, "udp", src, dst,
                                        payload, "dropped", dup=copy > 0)
                continue
            self.simulator.schedule(
                profile.latency.sample(rng),
                _Delivery(self, payload, src, dst, profile, copy > 0))

    # -- reliable streams (TCP-like, for truncation fallback) -----------------

    def bind_stream(self, endpoint: Endpoint, handler: DatagramHandler) -> None:
        """Attach a handler for reliable-stream messages to ``endpoint``."""
        if endpoint in self._stream_bindings:
            raise NetworkError(f"stream endpoint already bound: {endpoint}")
        self._stream_bindings[endpoint] = handler

    def unbind_stream(self, endpoint: Endpoint) -> None:
        """Remove a stream binding, if present."""
        self._stream_bindings.pop(endpoint, None)

    def send_stream(self, payload: bytes, src: Endpoint, dst: Endpoint) -> None:
        """Reliable, size-unbounded delivery — the DNS-over-TCP path.

        No loss or duplication (TCP retransmits below our abstraction);
        latency is three one-way delays, approximating connection setup
        plus data transfer.
        """
        self.stats.stream_messages += 1
        self.stats.stream_bytes += len(payload)
        profile = self._profile_for(src, dst)
        delay = sum(profile.latency.sample(self.rng) for _ in range(3))
        self.simulator.schedule(
            delay, _StreamDelivery(self, payload, src, dst, profile, False))


@dataclasses.dataclass(eq=False)
class _Delivery:
    """One datagram copy in flight: what :meth:`Network.send` schedules.
    A slotted record rather than a closure, and nothing it references
    points back at it, so it is freed by reference count once fired.
    """

    __slots__ = ("network", "payload", "src", "dst", "profile", "dup")

    network: Network
    payload: bytes
    src: Endpoint
    dst: Endpoint
    profile: LinkProfile     # in force when the datagram was sent
    dup: bool

    def __call__(self) -> None:
        network, payload = self.network, self.payload
        src, dst = self.src, self.dst
        handler = network._bindings.get(dst)
        if handler is None:
            # Port unreachable: dropped like real UDP without ICMP, but
            # counted — an unreachable storm is a topology bug.
            network.stats.datagrams_unreachable += 1
            self.profile.stats.unreachable += 1
            if network.trace is not None:
                network.trace.emit("net.unreachable", None, src, dst,
                                   len(payload))
            if network.capture is not None:
                network.capture.record(network.simulator.now, "udp", src,
                                       dst, payload, "unreachable",
                                       dup=self.dup)
            return
        stats = network.stats
        stats.datagrams_delivered += 1
        stats.bytes_delivered += len(payload)
        self.profile.stats.delivered += 1
        if network.trace is not None:
            network.trace.emit("net.deliver", None, src, dst, len(payload))
        if network.capture is not None:
            network.capture.record(network.simulator.now, "udp", src, dst,
                                   payload, "delivered", dup=self.dup)
        handler(payload, src, dst)


class _StreamDelivery(_Delivery):
    """One reliable-stream message in flight (``profile`` / ``dup`` unused)."""

    __slots__ = ()

    def __call__(self) -> None:
        network, payload = self.network, self.payload
        src, dst = self.src, self.dst
        handler = network._stream_bindings.get(dst)
        if handler is None:
            if network.capture is not None:
                network.capture.record(network.simulator.now, "stream", src,
                                       dst, payload, "unreachable")
            return
        if network.capture is not None:
            network.capture.record(network.simulator.now, "stream", src, dst,
                                   payload, "delivered")
        handler(payload, src, dst)
