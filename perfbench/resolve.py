"""The ``resolve_mix`` workload: reads beside writes on the full stack.

``repro.sim.ProtocolScenario`` stands up a root, two authoritative
servers with DNScup attached, three recursive resolvers and their
stubs.  Client lookups go stub -> resolver -> root/authoritative with
RRC/LLT lease negotiation while the domains' own change processes edit
the zones and the servers push CACHE-UPDATEs into the real resolver
caches.  It uses every layer the storms use, but differently — whole
multi-section messages with name compression, many records with at most
three holders each, a shallow timer queue — and it is the only workload
that runs ``server.resolver``, ``core.listening`` and ``zone`` updates
at volume.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict, List, Tuple

from repro.sim import ProtocolScenario, ScenarioConfig
from repro.traces import (PopulationConfig, WorkloadConfig,
                          assign_global_zipf, generate_population,
                          generate_requests)

from tracer import Tracer

#: Simulated seconds of client traffic.  The issue's starting point was
#: two hours (~14k lookups, 2.7 s an iteration here); ninety minutes
#: lets eight measured iterations fit in a 20 s run.
DURATION = 5400.0
REQUEST_RATE = 2.0
#: The most stale answers a correct run may give, as a share of all
#: answers (0-0.08 % with DNScup on, about 1.4 % with it off).
MAX_STALE_SHARE = 0.005
MAX_DATAGRAM = 512


@dataclasses.dataclass
class ResolveWorld:
    scenario: ProtocolScenario
    workload: WorkloadConfig
    expected_lookups: int
    generate_s: float
    issued: int = 0


class ResolveWorkload:
    name = "resolve_mix"

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def precheck(self, seed: int) -> List[str]:
        return []

    def build(self, seed: int) -> ResolveWorld:
        """Population, topology, zone-change schedule, request count.

        The population and its Zipf popularity are constants: drawing
        them from the seed moves throughput by several percent, because
        it changes how many lookups miss.  The seed drives the request
        stream and the network's latency draws.
        """
        started = perf_counter()
        population = assign_global_zipf(
            generate_population(PopulationConfig(
                regular_per_tld=40, cdn_count=30, dyn_count=30, seed=2006)),
            exponent=1.1, seed=99)
        workload = WorkloadConfig(duration=DURATION,
                                  total_request_rate=REQUEST_RATE,
                                  client_cache_seconds=0, seed=seed)
        # run_workload() draws the request stream itself; drawing it
        # here as well gives the lookup count the run must reproduce.
        expected = sum(1 for _ in generate_requests(population, workload))
        generate_s = perf_counter() - started
        scenario = ProtocolScenario(
            population, ScenarioConfig(auth_servers=2, resolvers=3,
                                       network_seed=seed))
        scenario.schedule_changes(DURATION)
        return ResolveWorld(scenario, workload, expected, generate_s)

    def run(self, world: ResolveWorld) -> int:
        """The timed region; one operation is one client lookup."""
        world.issued = world.scenario.run_workload(world.workload)
        return world.issued

    def check(self, world: ResolveWorld, last: bool) -> Tuple[int, List[str]]:
        scenario, report = world.scenario, world.scenario.report
        summary = scenario.dnscup_summary()
        problems: List[str] = []
        unanswered = world.issued - report.answers
        unacked = int(summary["notifications_sent"]
                      - summary["acks_received"])
        lost = sum(stub.stats.failures for stub in scenario.stubs)
        if world.issued != world.expected_lookups:
            problems.append(f"{world.issued} lookups issued, the request "
                            f"stream holds {world.expected_lookups}")
        if unanswered:
            problems.append(f"{unanswered} lookups never answered")
        if unacked:
            problems.append(f"{unacked} CACHE-UPDATEs never acknowledged")
        if lost:
            problems.append(f"{lost} lookups failed at the stub")
        if report.stale_answers > MAX_STALE_SHARE * max(1, report.answers):
            problems.append(f"{report.stale_answers} stale answers of "
                            f"{report.answers}")
        if scenario.network.stats.max_datagram > MAX_DATAGRAM:
            problems.append(
                f"datagram of {scenario.network.stats.max_datagram} bytes")
        return unanswered + unacked + lost, problems

    def counts(self, world: ResolveWorld) -> Dict[str, float]:
        scenario = world.scenario
        summary = scenario.dnscup_summary()
        middlewares = scenario.middlewares
        servers = scenario.auth_servers + [scenario.root_server]
        hits = sum(r.cache.stats.hits + r.cache.stats.negative_hits
                   for r in scenario.resolvers)
        lookups = sum(r.cache.stats.lookups for r in scenario.resolvers)
        return {
            "net.simulator.events": scenario.simulator.events_processed,
            "net.network.datagrams": scenario.network.stats.datagrams_sent,
            "net.network.bytes": scenario.network.stats.bytes_sent,
            "core.lease.peak_active": sum(
                m.table.stats.peak_active for m in middlewares),
            "core.notification.sent": summary["notifications_sent"],
            "core.notification.retransmissions": sum(
                m.notification.stats.retransmissions for m in middlewares),
            "core.notification.acks": summary["acks_received"],
            "core.notification.wire_encodes": summary["wire_encodes"],
            "core.detection.changes": summary["changes_detected"],
            "core.listening.grants": sum(
                m.listening.stats.grants for m in middlewares),
            "server.auth.queries": sum(s.stats.queries for s in servers),
            "server.resolver.client_queries": sum(
                r.stats.client_queries for r in scenario.resolvers),
            "server.resolver.upstream_queries":
                scenario.total_upstream_queries(),
            "server.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "traces.generate_s": world.generate_s,
            "traces.events": world.expected_lookups,
        }

    def extras(self, run, untraced_s: float) -> Dict[str, float]:
        return {}
