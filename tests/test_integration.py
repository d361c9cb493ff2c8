"""Cross-module integration tests.

These exercise the seams the unit tests cannot: the measurement prober
against a *live* simulated nameserver hierarchy (not the oracle), the
emergency-remap scenario from the paper's introduction, and agreement
between the event-driven simulator and the §4.1 analytical model at the
whole-system level.
"""

import pytest

from repro.core import DynamicLeasePolicy, attach_dnscup
from repro.dnslib import A, Name, Rcode, RRType
from repro.measurement import (
    DnsDynamicsProber,
    oracle_from_specs,
    summarize_campaign,
)
from repro.net import Host, Network, Simulator
from repro.server import AuthoritativeServer, RecursiveResolver, StubResolver
from repro.sim import ProtocolScenario, ScenarioConfig, Testbed, TestbedConfig
from repro.traces import (
    CATEGORY_REGULAR,
    DomainSpec,
    PoissonRelocation,
    StableProcess,
    WorkloadConfig,
)
from repro.zone import load_zone


class TestProberAgainstLiveServer:
    """The prober's change counts must match whether it samples the
    ground-truth oracle or a real server whose zone follows the same
    change process — validating the measurement substitution."""

    def test_oracle_and_live_server_agree(self):
        name = Name.from_text("www.moving.com")
        process = PoissonRelocation(["10.7.0.1"], mean_lifetime=2000.0,
                                    seed=42)
        domain = DomainSpec(name, CATEGORY_REGULAR, 600.0, 1.0, process)

        # Path 1: oracle.
        prober = DnsDynamicsProber(oracle_from_specs([domain]),
                                   max_probes_per_domain=200)
        oracle_result = prober.probe_domain(domain)

        # Path 2: live zone, mutated by the same process events, sampled
        # through an actual authoritative server at the same cadence.
        simulator = Simulator()
        network = Network(simulator, seed=1)
        zone = load_zone(
            "$ORIGIN moving.com.\n$TTL 600\n"
            "@ IN SOA ns1 admin 1 7200 900 604800 300\n"
            "@ IN NS ns1\nns1 IN A 10.7.255.1\nwww IN A 10.7.0.1\n")
        server = AuthoritativeServer(Host(network, "10.7.255.1"), [zone])
        client = Host(network, "10.7.255.2").socket()

        resolution = oracle_result.ttl_class.resolution
        horizon = 200 * resolution
        for event in process.events_between(0.0, horizon):
            simulator.schedule_at(event.time,
                                  lambda e=event: zone.replace_address(
                                      name, list(e.addresses)))
        observed = []

        def probe(step):
            from repro.dnslib import Message, make_query
            query = make_query(name, RRType.A, recursion_desired=False)
            client.request(
                query.to_wire(), ("10.7.255.1", 53), query.id,
                lambda p, s: observed.append(
                    tuple(sorted(r.rdata.address
                                 for r in Message.from_wire(p).answer))))

        for step in range(200):
            simulator.schedule_at(step * resolution, lambda s=step: probe(s))
        simulator.run()

        live_changes = sum(1 for a, b in zip(observed, observed[1:])
                           if a != b)
        assert live_changes == oracle_result.changes

    def test_campaign_summaries_have_expected_shape(self):
        from repro.traces import PopulationConfig, generate_population
        population = generate_population(PopulationConfig(
            regular_per_tld=12, cdn_count=12, dyn_count=12, seed=77))
        prober = DnsDynamicsProber(oracle_from_specs(population),
                                   max_probes_per_domain=400)
        summaries = summarize_campaign(prober.run_campaign(population))
        # Classes 1-2 (CDN-dominated) change far more often than 3-5.
        fast = [s.mean_change_frequency for i, s in summaries.items()
                if i in (1, 2)]
        slow = [s.mean_change_frequency for i, s in summaries.items()
                if i in (3, 4, 5)]
        assert fast and slow
        assert min(fast) > max(slow)


class TestEmergencyRemap:
    """The paper's motivating scenario 1: a disaster forces an immediate
    redirect of a service to a backup site; DNScup caches follow at
    network speed while TTL caches are stranded."""

    def build(self, dnscup_enabled):
        simulator = Simulator()
        network = Network(simulator, seed=3)
        zone = load_zone(
            "$ORIGIN bank.com.\n$TTL 86400\n"   # one-day TTL: the trap
            "@ IN SOA ns1 admin 1 7200 900 604800 300\n"
            "@ IN NS ns1\nns1 IN A 10.8.0.1\nwww IN A 10.8.1.1\n")
        root = AuthoritativeServer(
            Host(network, "198.41.0.4"),
            [load_zone("$ORIGIN .\n$TTL 86400\n"
                       ". IN SOA a.root. admin. 1 7200 900 604800 300\n"
                       ". IN NS a.root.\na.root. IN A 198.41.0.4\n"
                       "bank.com. IN NS ns1.bank.com.\n"
                       "ns1.bank.com. IN A 10.8.0.1\n",
                       origin=Name.root())])
        auth = AuthoritativeServer(Host(network, "10.8.0.1"), [zone])
        middleware = None
        if dnscup_enabled:
            middleware = attach_dnscup(auth, policy=DynamicLeasePolicy(0.0))
        resolver = RecursiveResolver(Host(network, "10.9.0.1"),
                                     [("198.41.0.4", 53)],
                                     dnscup_enabled=dnscup_enabled)
        stub = StubResolver(Host(network, "10.9.0.2"), ("10.9.0.1", 53),
                            cache_seconds=0.0)
        return simulator, zone, resolver, stub, middleware

    def lookup(self, simulator, stub):
        results = []
        stub.lookup("www.bank.com", lambda a, rc: results.append(a))
        simulator.run()
        return results[0]

    def test_dnscup_redirect_is_instant(self):
        simulator, zone, resolver, stub, middleware = self.build(True)
        assert self.lookup(simulator, stub) == ["10.8.1.1"]
        # Disaster at t: service moves to the backup site.
        zone.replace_address("www.bank.com", ["172.31.99.1"])
        simulator.run()
        assert self.lookup(simulator, stub) == ["172.31.99.1"]
        assert middleware.notification.ack_ratio() == 1.0

    def test_ttl_only_serves_dead_address(self):
        simulator, zone, resolver, stub, _ = self.build(False)
        assert self.lookup(simulator, stub) == ["10.8.1.1"]
        zone.replace_address("www.bank.com", ["172.31.99.1"])
        simulator.run()
        # The resolver cache still holds the dead mapping (TTL one day).
        assert self.lookup(simulator, stub) == ["10.8.1.1"]


class TestScenarioVsAnalyticalModel:
    def test_upstream_savings_follow_lease_model(self):
        """With DNScup leases on, resolvers refetch less after TTL expiry
        than without — the communication saving §4.1 promises."""
        domains = [DomainSpec(Name.from_text(f"www.s{i}.com"),
                              CATEGORY_REGULAR, 30.0, 1.0,
                              StableProcess([f"10.30.{i}.1"]))
                   for i in range(4)]
        workload = WorkloadConfig(duration=1800.0, clients=9, nameservers=3,
                                  total_request_rate=1.0,
                                  client_cache_seconds=0.0, seed=31)
        upstream = {}
        for enabled in (True, False):
            scenario = ProtocolScenario(
                domains, ScenarioConfig(dnscup_enabled=enabled,
                                        auth_servers=1, resolvers=3))
            scenario.run_workload(workload)
            upstream[enabled] = scenario.total_upstream_queries()
        assert upstream[True] < upstream[False]


class TestTestbedCpuParity:
    def test_query_handling_cost_comparable(self):
        """§5.2: 'the difference in computation overhead between TTL and
        DNScup is hardly noticeable'.  Handle the same query stream with
        and without the middleware and compare per-query CPU time."""
        import gc
        import time

        def time_queries(dnscup_enabled):
            testbed = Testbed(TestbedConfig(dnscup_enabled=dnscup_enabled))
            testbed.lookup_all(0)  # warm caches and code paths
            # Each timed window is ~30 ms; a full collection of the
            # whole suite's heap is ~60 ms and used to land in one of
            # them every few runs.  Collect first so none comes due.
            gc.collect()
            start = time.perf_counter()
            for _ in range(3):
                for cache in testbed.caches:
                    cache.cache.flush()
                testbed.lookup_all(0)
            return time.perf_counter() - start

        with_cup = time_queries(True)
        without = time_queries(False)
        # "Hardly noticeable": within 3x under noisy CI timing.
        assert with_cup < 3.0 * without
