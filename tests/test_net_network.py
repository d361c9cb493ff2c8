"""Tests for the simulated UDP network."""

import pytest

from repro.dnslib import MAX_UDP_PAYLOAD
from repro.net import (
    LatencyModel,
    LinkProfile,
    LognormalLatency,
    Network,
    NetworkError,
    Simulator,
)


def collector():
    received = []

    def handler(payload, src, dst):
        received.append((payload, src, dst))

    return received, handler


class TestDelivery:
    def test_basic_delivery(self, simulator, network):
        received, handler = collector()
        network.bind(("10.0.0.2", 53), handler)
        network.send(b"hello", ("10.0.0.1", 1000), ("10.0.0.2", 53))
        simulator.run()
        assert received == [(b"hello", ("10.0.0.1", 1000), ("10.0.0.2", 53))]

    def test_latency_applied(self, simulator):
        network = Network(simulator, seed=1,
                          default_profile=LinkProfile(
                              latency=LatencyModel(base=0.25)))
        arrivals = []
        network.bind(("b", 1), lambda p, s, d: arrivals.append(simulator.now))
        network.send(b"x", ("a", 1), ("b", 1))
        simulator.run()
        assert arrivals == [0.25]

    def test_unbound_destination_dropped_silently(self, simulator, network):
        network.send(b"x", ("a", 1), ("nowhere", 9))
        simulator.run()
        assert network.stats.datagrams_delivered == 0

    def test_double_bind_rejected(self, network):
        network.bind(("a", 1), lambda *a: None)
        with pytest.raises(NetworkError):
            network.bind(("a", 1), lambda *a: None)

    def test_unbind_then_rebind(self, network):
        network.bind(("a", 1), lambda *a: None)
        network.unbind(("a", 1))
        network.bind(("a", 1), lambda *a: None)

    def test_udp_limit_enforced(self, network):
        with pytest.raises(NetworkError):
            network.send(b"x" * (MAX_UDP_PAYLOAD + 1), ("a", 1), ("b", 1))

    def test_udp_limit_relaxable(self, simulator):
        network = Network(simulator, seed=1, enforce_udp_limit=False)
        network.send(b"x" * 2000, ("a", 1), ("b", 1))


class TestLossAndDuplication:
    def test_full_loss_link(self, simulator):
        network = Network(simulator, seed=3,
                          default_profile=LinkProfile(loss_rate=0.999))
        received, handler = collector()
        network.bind(("b", 1), handler)
        for _ in range(50):
            network.send(b"x", ("a", 1), ("b", 1))
        simulator.run()
        assert network.stats.datagrams_lost >= 45
        assert len(received) == network.stats.datagrams_delivered

    def test_loss_rate_statistics(self, simulator):
        network = Network(simulator, seed=4,
                          default_profile=LinkProfile(loss_rate=0.3))
        network.bind(("b", 1), lambda *a: None)
        n = 2000
        for _ in range(n):
            network.send(b"x", ("a", 1), ("b", 1))
        simulator.run()
        loss = network.stats.datagrams_lost / n
        assert 0.25 < loss < 0.35

    def test_duplication(self, simulator):
        network = Network(simulator, seed=5,
                          default_profile=LinkProfile(duplicate_rate=0.5))
        received, handler = collector()
        network.bind(("b", 1), handler)
        for _ in range(200):
            network.send(b"x", ("a", 1), ("b", 1))
        simulator.run()
        assert len(received) > 220  # some duplicates arrived

    def test_per_link_profile_overrides_default(self, simulator):
        network = Network(simulator, seed=6)
        network.set_link_profile("a", "b", LinkProfile(loss_rate=0.999))
        received, handler = collector()
        network.bind(("b", 1), handler)
        network.bind(("c", 1), handler)
        for _ in range(30):
            network.send(b"x", ("a", 1), ("b", 1))   # lossy link
            network.send(b"x", ("a", 1), ("c", 1))   # default link
        simulator.run()
        to_c = [r for r in received if r[2] == ("c", 1)]
        to_b = [r for r in received if r[2] == ("b", 1)]
        assert len(to_c) == 30
        assert len(to_b) < 5

    def test_fate_charged_to_profile_in_force_at_send(self, simulator):
        network = Network(simulator, seed=6)
        at_send = LinkProfile()
        network.set_link_profile("a", "b", at_send)
        network.set_link_profile("a", "nobody", at_send)
        received, handler = collector()
        network.bind(("b", 1), handler)
        network.send(b"x", ("a", 1), ("b", 1))
        network.send(b"x", ("a", 1), ("nobody", 1))
        # The links change while both datagrams are in flight.
        later = LinkProfile()
        network.set_link_profile("a", "b", later)
        network.set_link_profile("a", "nobody", later)
        simulator.run()
        assert len(received) == 1
        assert (at_send.stats.delivered, at_send.stats.unreachable) == (1, 1)
        assert (later.stats.delivered, later.stats.unreachable) == (0, 0)
        assert network.default_profile.stats.delivered == 0

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            LinkProfile(loss_rate=1.5)
        with pytest.raises(ValueError):
            LinkProfile(duplicate_rate=-0.1)


class TestStats:
    def test_counters_and_max_datagram(self, simulator, network):
        network.bind(("b", 1), lambda *a: None)
        network.send(b"12345", ("a", 1), ("b", 1))
        network.send(b"123", ("a", 1), ("b", 1))
        simulator.run()
        stats = network.stats
        assert stats.datagrams_sent == 2
        assert stats.datagrams_delivered == 2
        assert stats.bytes_sent == 8
        assert stats.max_datagram == 5

    def test_reset(self, simulator, network):
        network.bind(("b", 1), lambda *a: None)
        network.send(b"x", ("a", 1), ("b", 1))
        simulator.run()
        network.stats.reset()
        assert network.stats.datagrams_sent == 0


class TestLatencyModels:
    def test_fixed_latency_no_rng_use(self):
        import random
        model = LatencyModel(base=0.1)
        assert model.sample(random.Random(0)) == 0.1

    def test_jitter_within_bounds(self):
        import random
        model = LatencyModel(base=0.1, jitter=0.05)
        rng = random.Random(0)
        for _ in range(100):
            sample = model.sample(rng)
            assert 0.1 <= sample <= 0.15

    def test_lognormal_positive_and_heavy(self):
        import random
        model = LognormalLatency(base=0.01, mu=-4.0, sigma=1.0)
        rng = random.Random(0)
        samples = [model.sample(rng) for _ in range(1000)]
        assert all(s > 0.01 for s in samples)
        assert max(samples) > 5 * (sum(samples) / len(samples))

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base=-1.0)
