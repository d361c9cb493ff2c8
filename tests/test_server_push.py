"""Tests for the DNS-Push-style comparator."""

import struct

import pytest

from repro.dnslib import A, Name, RRType
from repro.server import PushService, PushSubscriber
from repro.zone import load_zone
from tests.conftest import EXAMPLE_ZONE_TEXT

NAME = Name.from_text("www.example.com")


@pytest.fixture
def world(make_host, simulator):
    server_host = make_host("10.1.0.1")
    cache_host = make_host("10.2.0.1")
    zone = load_zone(EXAMPLE_ZONE_TEXT)
    service = PushService(server_host.dns_socket(), [zone],
                          keepalive_interval=600.0)
    applied = []
    subscriber = PushSubscriber(
        cache_host.dns_socket(),
        lambda name, rrtype, rrsets: applied.append((name, rrtype, rrsets)))
    return zone, service, subscriber, applied, simulator


class TestSubscriptions:
    def test_subscribe_and_count(self, world):
        zone, service, subscriber, applied, simulator = world
        service.subscribe(subscriber.endpoint, NAME, RRType.A)
        assert service.subscriber_count() == 1
        # Idempotent.
        service.subscribe(subscriber.endpoint, NAME, RRType.A)
        assert service.subscriber_count() == 1
        assert service.stats.subscriptions == 1

    def test_unsubscribe(self, world):
        zone, service, subscriber, applied, simulator = world
        service.subscribe(subscriber.endpoint, NAME, RRType.A)
        assert service.unsubscribe(subscriber.endpoint, NAME, RRType.A)
        assert not service.unsubscribe(subscriber.endpoint, NAME, RRType.A)
        assert service.subscriber_count() == 0


class TestPushDelivery:
    def test_change_pushed_to_subscriber(self, world):
        zone, service, subscriber, applied, simulator = world
        service.subscribe(subscriber.endpoint, NAME, RRType.A)
        zone.replace_address(NAME, ["172.30.0.1"])
        simulator.run()
        assert service.stats.pushes_sent == 1
        assert subscriber.stats.pushes_received == 1
        name, rrtype, rrsets = applied[0]
        assert name == NAME and rrsets[0].rdatas == (A("172.30.0.1"),)

    def test_unsubscribed_record_not_pushed(self, world):
        zone, service, subscriber, applied, simulator = world
        service.subscribe(subscriber.endpoint, NAME, RRType.A)
        zone.replace_address("mail.example.com", ["172.30.0.2"])
        simulator.run()
        assert not applied

    def test_subscription_never_decays(self, world):
        """Unlike a lease, subscription state survives arbitrarily long
        idle periods — the storage cost DNScup's dynamic lease avoids."""
        zone, service, subscriber, applied, simulator = world
        service.subscribe(subscriber.endpoint, NAME, RRType.A)
        simulator.run_until(30 * 86400.0)  # a silent month
        zone.replace_address(NAME, ["172.30.0.3"])
        simulator.run()
        assert subscriber.stats.pushes_received == 1

    def test_deletion_pushed_with_empty_answer(self, world):
        zone, service, subscriber, applied, simulator = world
        service.subscribe(subscriber.endpoint, NAME, RRType.A)
        zone.delete_rrset(NAME, RRType.A)
        simulator.run()
        name, rrtype, rrsets = applied[0]
        assert rrsets == []


class TestKeepalives:
    def test_keepalives_flow_per_connection(self, world):
        zone, service, subscriber, applied, simulator = world
        service.subscribe(subscriber.endpoint, NAME, RRType.A)
        service.subscribe(subscriber.endpoint,
                          Name.from_text("mail.example.com"), RRType.A)
        simulator.run_until(1900.0)  # three keepalive intervals
        simulator.run()
        # One connection → one keepalive per interval despite two
        # subscriptions.
        assert service.stats.keepalives_sent == 3
        assert subscriber.stats.keepalives_received == 3

    def test_no_keepalives_without_subscribers(self, world):
        zone, service, subscriber, applied, simulator = world
        simulator.run_until(1900.0)
        assert service.stats.keepalives_sent == 0


class TestHostileStreams:
    def test_every_opcode_header_is_survived(self, world, make_host):
        """A bare 12-byte header of each opcode 0-15 on the subscriber's
        stream: none is applied, none stops the simulator."""
        zone, service, subscriber, applied, simulator = world
        prober = make_host("10.9.0.1").socket()
        for opcode in range(16):
            prober.send_stream(struct.pack("!6H", 7, opcode << 11, 0, 0, 0, 0),
                               subscriber.endpoint)
        simulator.run()
        assert applied == []
        assert subscriber.stats.pushes_received == 0
