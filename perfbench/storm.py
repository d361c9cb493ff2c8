"""The renewal-storm workloads: ``storm_bare`` and ``storm_observed``.

The scenario is ``benchmarks/bench_renewal_storm.py``'s — one leased
record, a holder population whose leases synchronize, one mapping
change fanned out as CACHE-UPDATEs with one forced retransmission per
leg — rebuilt here from the public surfaces so it can run with *any*
observability plane, including none, and with a load generator that
does not spend the run inside ``dnslib``.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core import DNScupConfig, DynamicLeasePolicy, attach_dnscup
from repro.dnslib import (Message, RRType, WireFormatError,
                          make_cache_update_ack)
from repro.net import (Host, LatencyModel, LinkProfile, Network,
                       RetryPolicy, Simulator)
from repro.obs import (IncrementalAuditor, Observability,
                       audit_observability)
from repro.server import AuthoritativeServer
from repro.zone import load_zone

from tracer import Tracer

HOLDERS = 5_000
#: Holder count of the bare/observed twin comparison run before timing.
TWIN_HOLDERS = 500

# Phase schedule (simulated seconds), as in bench_renewal_storm.
GRANT_WINDOW = 300.0
GRANT_BATCHES = 200
RENEW_AT = 600.0
CHANGE_AT = 660.0
LEASE_LENGTH = 3600.0

#: 15 ms < the 20-28 ms round trip below, so every notify leg is
#: retransmitted exactly once before its ack lands (the second timeout,
#: 30 ms later, never fires).
NOTIFY_RETRY = RetryPolicy(initial_timeout=0.015, max_attempts=4)
ONE_WAY_BASE = 0.010
ONE_WAY_JITTER = 0.004

ZONE_TEXT = """\
$ORIGIN example.com.
$TTL 3600
@    IN SOA ns1 admin 1 7200 900 604800 300
@    IN NS  ns1
ns1  IN A   10.1.0.1
www  IN A   10.0.0.10
"""
SERVER_ADDRESS = "10.1.0.1"
LEASED_NAME = "www.example.com"

#: Share of holders whose every answer is kept for the byte-equality
#: proof after the timed region.
SAMPLE_SHARE = 0.01

#: Observability planes: (trace bus armed, wire capture, load ledger).
#: ``ledger`` is what ``storm_observed`` runs; the others are the
#: facets ROADMAP item 1a asks to be priced separately.
PLANES = {
    "bare": (False, False, False),
    "trace": (True, False, False),
    "capture": (True, True, False),
    "ledger": (True, False, True),
    "full": (True, True, True),
}


class EchoHolders:
    """The load generator: holders that acknowledge every CACHE-UPDATE.

    ``bench_renewal_storm.bind_echo_holders`` parses each update with
    ``dnslib`` and encodes a fresh ack, which makes the *generator* the
    largest ``dnslib`` user of the run.  Here the ack for a given update
    body is built once through ``dnslib`` and afterwards answered from
    that template with the update's message ID spliced in.  The first
    use of every body and everything the sampled holders send is kept
    and proved byte-equal to the ``dnslib`` answer by :meth:`mismatches`,
    outside the timed region.
    """

    def __init__(self, network: Network,
                 endpoints: Sequence[Tuple[str, int]],
                 sampled: FrozenSet[Tuple[str, int]]):
        self.network = network
        self.sampled = sampled
        self.answered = 0
        self._ack_tails: Dict[bytes, bytes] = {}
        self._kept: List[Tuple[bytes, bytes]] = []
        for endpoint in endpoints:
            network.bind(endpoint, self.on_datagram)

    @staticmethod
    def reference_ack(payload: bytes) -> bytes:
        """The acknowledgement as a ``dnslib`` cache would build it."""
        return make_cache_update_ack(Message.from_wire(payload)).to_wire()

    def on_datagram(self, payload: bytes, src, dst) -> None:
        # Responses (a duplicate ack bounced back) and runts are ignored
        # so nothing can ping-pong.
        if len(payload) < 3 or payload[2] & 0x80:
            return
        body = payload[2:]
        tail = self._ack_tails.get(body)
        keep = dst in self.sampled
        if tail is None:
            try:
                tail = self.reference_ack(payload)[2:]
            except WireFormatError:
                return
            self._ack_tails[body] = tail
            keep = True
        ack = payload[:2] + tail
        if keep:
            self._kept.append((payload, ack))
        self.answered += 1
        self.network.send(ack, dst, src)

    def mismatches(self) -> int:
        """Kept answers that differ from the ``dnslib`` answer."""
        return sum(1 for payload, ack in self._kept
                   if self.reference_ack(payload) != ack)


@dataclasses.dataclass
class StormWorld:
    """One assembled storm, consumed by a single :func:`run_storm`."""

    simulator: Simulator
    network: Network
    server: AuthoritativeServer
    zone: object
    middleware: object
    echo: EchoHolders
    endpoints: List[Tuple[str, int]]
    renew_order: List[Tuple[str, int]]
    new_address: str
    obs: Optional[Observability]
    audit: bool
    audit_report: object = None
    settle_s: float = 0.0

    @property
    def holders(self) -> int:
        return len(self.endpoints)


def build_storm(seed: int, holders: int, plane: str = "bare",
                audit: bool = False, table_backend: Optional[str] = None,
                queue: Optional[str] = None) -> StormWorld:
    """Everything between the seed and the first timed call.

    The seed picks who the holders are, the order they are granted and
    renewed in, every datagram's latency jitter and the address the
    record moves to; the holder count, phase schedule and retry policy
    do not depend on it.
    """
    rng = random.Random(seed)
    trace_on, capture_on, ledger_on = PLANES[plane]
    simulator = Simulator() if queue is None else Simulator(queue=queue)
    obs = None
    if trace_on:
        obs = Observability.for_simulator(simulator, capture=capture_on,
                                          trace_capacity=1 << 21)
        if ledger_on:
            obs.enable_load()
    network = Network(
        simulator, seed=seed,
        default_profile=LinkProfile(
            latency=LatencyModel(ONE_WAY_BASE, ONE_WAY_JITTER)))
    if obs is not None:
        obs.observe_network(network)
    zone = load_zone(ZONE_TEXT)
    server = AuthoritativeServer(Host(network, SERVER_ADDRESS), [zone])
    config = DNScupConfig(observability=obs, notify_retry=NOTIFY_RETRY,
                          lease_capacity=2 * holders)
    if table_backend is not None:
        config = dataclasses.replace(config,
                                     lease_table_backend=table_backend)
    middleware = attach_dnscup(server, policy=DynamicLeasePolicy(0.0),
                               config=config)
    # Holder identities: a seeded draw from 172.16.0.0/12.
    endpoints = [(f"172.{16 + (n >> 16)}.{(n >> 8) & 255}.{n & 255}", 53)
                 for n in rng.sample(range(1 << 20), holders)]
    renew_order = list(endpoints)
    rng.shuffle(renew_order)
    sampled = frozenset(rng.sample(endpoints,
                                   max(1, int(holders * SAMPLE_SHARE))))
    echo = EchoHolders(network, endpoints, sampled)
    new_address = f"10.0.{rng.randrange(1, 255)}.{rng.randrange(1, 255)}"
    return StormWorld(simulator, network, server, zone, middleware, echo,
                      endpoints, renew_order, new_address, obs, audit)


def run_storm(world: StormWorld, tracer: Tracer) -> int:
    """The timed region: grant, synchronize, change, settle (, audit).

    Returns the operations attempted — one per holder, each taken
    through grant -> renew -> notify -> ack.
    """
    simulator, table = world.simulator, world.middleware.table
    holders, endpoints = world.holders, world.endpoints
    # Phase 1: grants spread across the window build the slow baseline.
    batch = max(1, holders // GRANT_BATCHES)
    for start in range(0, holders, batch):
        simulator.run_until(GRANT_WINDOW * start / holders)
        now = simulator.now
        for endpoint in endpoints[start:start + batch]:
            table.grant(endpoint, LEASED_NAME, RRType.A, now=now,
                        length=LEASE_LENGTH)
    # Phase 2: every holder renews in one synchronized instant.
    simulator.run_until(RENEW_AT)
    now = simulator.now
    for endpoint in world.renew_order:
        table.grant(endpoint, LEASED_NAME, RRType.A, now=now,
                    length=LEASE_LENGTH)
    # Phase 3: one mapping change fans CACHE-UPDATEs to every holder.
    simulator.run_until(CHANGE_AT)
    changed = perf_counter()
    world.zone.replace_address(LEASED_NAME, [world.new_address])
    simulator.run()
    world.settle_s = perf_counter() - changed
    if world.obs is not None and world.obs.load is not None:
        world.obs.load.detector.close_open(simulator.now)
    if world.audit:
        world.audit_report = tracer.call("obs.audit", audit_observability,
                                         world.obs)
    return holders


def check_storm(world: StormWorld) -> Tuple[int, List[str]]:
    """Output checks; returns (failed operations, what went wrong)."""
    problems: List[str] = []
    stats = world.middleware.notification.stats
    table = world.middleware.table
    holders = world.holders
    acked = {outcome.cache for outcome in world.middleware.notification.outcomes
             if outcome.acked}
    failed = holders - len(acked.intersection(world.endpoints))
    if failed:
        problems.append(f"{failed} holders never acknowledged the update")
    for label, got, want in (
            ("notifications_sent", stats.notifications_sent, holders),
            ("notification failures", stats.failures, 0),
            ("notifications in flight", stats.in_flight, 0),
            ("renewals", table.stats.renewals, holders),
            ("load-generator answers", world.echo.answered,
             stats.notifications_sent + stats.retransmissions)):
        if got != want:
            problems.append(f"{label}: {got}, expected {want}")
    served = world.zone.get_rrset(LEASED_NAME, RRType.A)
    addresses = [] if served is None else [r.address for r in served.rdatas]
    if addresses != [world.new_address]:
        problems.append(f"server serves {addresses}, "
                        f"expected [{world.new_address!r}]")
    mismatches = world.echo.mismatches()
    if mismatches:
        problems.append(f"{mismatches} templated acks differ from dnslib's")
    if world.audit:
        report, obs = world.audit_report, world.obs
        if report is None or report.violations:
            count = "no report" if report is None else len(report.violations)
            problems.append(f"audit violations: {count}")
        if obs.trace.dropped:
            problems.append(f"trace overflowed: {obs.trace.dropped} dropped")
        if obs.load is not None and not obs.load.detector.episodes:
            problems.append("no storm episode detected")
    return failed, problems


def protocol_counters(world: StormWorld) -> Dict[str, object]:
    """The counters a plane must not change (the twin comparison)."""
    net = world.network.stats
    return {
        "notification": dataclasses.asdict(
            world.middleware.notification.stats),
        "lease": dataclasses.asdict(world.middleware.table.stats),
        "datagrams_sent": net.datagrams_sent,
        "datagrams_delivered": net.datagrams_delivered,
        "bytes_sent": net.bytes_sent,
        "bytes_delivered": net.bytes_delivered,
        "now": world.simulator.now,
    }


class StormWorkload:
    """``storm_bare`` (no plane) or ``storm_observed`` (full plane)."""

    def __init__(self, observed: bool, tracer: Tracer):
        self.name = "storm_observed" if observed else "storm_bare"
        self.observed = observed
        self.tracer = tracer

    def build(self, seed: int) -> StormWorld:
        if self.observed:
            return build_storm(seed, HOLDERS, "ledger", audit=True)
        return build_storm(seed, HOLDERS)

    def run(self, world: StormWorld) -> int:
        return run_storm(world, self.tracer)

    def check(self, world: StormWorld, last: bool) -> Tuple[int, List[str]]:
        return check_storm(world)

    def precheck(self, seed: int) -> List[str]:
        """A small run of the same code before anything is timed; for
        ``storm_observed`` also the proof that the plane only observes."""
        bare = build_storm(seed, TWIN_HOLDERS)
        run_storm(bare, self.tracer)
        _failed, problems = check_storm(bare)
        if self.observed:
            twin = build_storm(seed, TWIN_HOLDERS, "ledger", audit=True)
            run_storm(twin, self.tracer)
            problems += check_storm(twin)[1]
            if protocol_counters(twin) != protocol_counters(bare):
                problems.append(
                    f"observed run diverges from its bare twin: "
                    f"{protocol_counters(twin)} != {protocol_counters(bare)}")
        return problems

    def counts(self, world: StormWorld) -> Dict[str, float]:
        """Per-layer counts read off the public stats objects."""
        stats = world.middleware.notification.stats
        counts = {
            "net.simulator.events": world.simulator.events_processed,
            "net.network.datagrams": world.network.stats.datagrams_sent,
            "net.network.bytes": world.network.stats.bytes_sent,
            "core.lease.peak_active":
                world.middleware.table.stats.peak_active,
            "core.notification.sent": stats.notifications_sent,
            "core.notification.retransmissions": stats.retransmissions,
            "core.notification.acks": stats.acks_received,
            "core.notification.wire_encodes": stats.wire_encodes,
            "core.notification.settle_s": world.settle_s,
            "core.detection.changes":
                world.middleware.detection.changes_detected,
            "server.auth.queries": world.server.stats.queries,
        }
        obs = world.obs
        if obs is not None:
            bus = obs.trace.stats()
            counts["obs.trace.emits"] = bus["emitted"]
            counts["obs.trace.dropped"] = bus["dropped"]
            if obs.capture is not None:
                counts["obs.capture.records"] = len(obs.capture)
            if obs.load is not None:
                counts["obs.load.records"] = obs.load.total
                counts["obs.load.storm_episodes"] = len(
                    obs.load.detector.episodes)
            if world.audit_report is not None:
                counts["obs.audit.checks"] = sum(
                    world.audit_report.checks.values())
        return counts

    # -- the probes that only a --trace 1 run makes --------------------------

    @staticmethod
    def _variant(run, tracer: Optional[Tracer] = None, **build) -> float:
        """One checked iteration of a storm variant through the run's
        own timing; returns its reference seconds (``run.world`` is the
        world it left behind)."""
        reference_s = run.iteration(
            tracer, build=lambda seed: build_storm(seed, HOLDERS, **build))
        run.check(count=False)
        return reference_s

    def extras(self, run, untraced_s: float) -> Dict[str, float]:
        if self.observed:
            return self._plane_facets(run)
        return self._alternates(run, untraced_s)

    def _alternates(self, run, untraced_s: float) -> Dict[str, float]:
        """ROADMAP 3c: the alternate lease table and timer queue under
        the protocol workload, one iteration each, as a ratio to the
        run's median untraced iteration."""
        out = {}
        fields = {f.name for f in dataclasses.fields(DNScupConfig)}
        if "lease_table_backend" in fields:
            out["core.leasearray.iter_ratio"] = self._variant(
                run, table_backend="array") / untraced_s
        if "queue" in inspect.signature(Simulator.__init__).parameters:
            out["net.heapqueue.iter_ratio"] = self._variant(
                run, queue="heap") / untraced_s
        return out

    def _plane_facets(self, run) -> Dict[str, float]:
        """ROADMAP 1a: what each facet of the plane costs — one
        iteration with it armed over one bare iteration, all made here,
        one after another."""
        # The streaming auditor over the trace the batch audit just read.
        events = list(run.world.obs.trace.events)
        started = perf_counter()
        IncrementalAuditor().feed_many(events)
        out = {"obs.streaming.feed_s": perf_counter() - started}
        bare_s = self._variant(run, plane="bare")
        for plane in ("trace", "capture", "ledger", "full"):
            out[f"obs.facet.{plane}_ratio"] = self._variant(
                run, plane=plane, audit=plane == "full") / bare_s
        out["obs.capture.records"] = len(run.world.obs.capture)
        # The workload's plane has no wire capture; its self time comes
        # from one traced iteration with trace bus and capture armed.
        self._variant(run, self.tracer, plane="capture")
        out["obs.capture.self_s"] = (
            self.tracer.self_ns.get("obs.capture", 0) / 1e9)
        return out
