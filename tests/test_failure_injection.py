"""Failure-injection integration tests.

Crash/restart and partition scenarios around the DNScup state: the
track file across a server restart, unreachable caches recovering,
leases expiring mid-incident, and daemon-event semantics under load.
"""

import struct

import pytest

from repro.core import DNScup, DNScupConfig, DynamicLeasePolicy, attach_dnscup
from repro.dnslib import A, Name, RRType
from repro.net import Host, LinkProfile, Network, RetryPolicy, Simulator
from repro.server import AuthoritativeServer, RecursiveResolver
from repro.zone import load_zone

ROOT_TEXT = """\
$ORIGIN .
$TTL 86400
.                IN SOA a.root. admin. 1 7200 900 604800 300
.                IN NS a.root.
a.root.          IN A  198.41.0.4
example.com.     IN NS ns1.example.com.
ns1.example.com. IN A  10.1.0.1
"""

ZONE_TEXT = """\
$ORIGIN example.com.
$TTL 3600
@    IN SOA ns1 admin 1 7200 900 604800 300
@    IN NS  ns1
ns1  IN A   10.1.0.1
www  IN A   10.0.0.10
"""


def build_world(make_host, simulator, notify_retry=None):
    AuthoritativeServer(make_host("198.41.0.4"),
                        [load_zone(ROOT_TEXT, origin=Name.root())])
    zone = load_zone(ZONE_TEXT)
    auth = AuthoritativeServer(make_host("10.1.0.1"), [zone])
    config = DNScupConfig()
    if notify_retry is not None:
        config = DNScupConfig(notify_retry=notify_retry)
    middleware = DNScup(auth, policy=DynamicLeasePolicy(0.0),
                        config=config).attach()
    resolver = RecursiveResolver(make_host("10.2.0.1"),
                                 [("198.41.0.4", 53)], dnscup_enabled=True)
    return zone, auth, middleware, resolver


def resolve(resolver, simulator, name="www.example.com"):
    results = []
    resolver.resolve(name, RRType.A, lambda recs, rc: results.append(recs))
    simulator.run()
    return results[0]


class TestServerRestart:
    def test_obligations_survive_restart_via_track_file(
            self, make_host, simulator, tmp_path):
        """Crash the authoritative server after granting leases; the
        restarted instance reloads the track file and still notifies."""
        zone, auth, middleware, resolver = build_world(make_host, simulator)
        resolve(resolver, simulator)
        path = str(tmp_path / "track.db")
        middleware.save_track_file(path)

        # "Crash": tear the middleware down entirely.
        middleware.detach()
        del middleware

        # "Restart": a fresh middleware instance, empty table, reload.
        revived = DNScup(auth, policy=DynamicLeasePolicy(0.0)).attach()
        assert len(revived.table) == 0
        revived.load_track_file(path)
        assert len(revived.table) == 1

        zone.replace_address("www.example.com", ["172.18.0.1"])
        simulator.run()
        entry = resolver.cache.peek("www.example.com", RRType.A)
        assert entry.rrset.rdatas == (A("172.18.0.1"),)

    def test_restart_without_track_file_degrades_to_ttl(
            self, make_host, simulator):
        """If the track file is lost, the cache falls back to the
        holder's lease: no push reaches it, and it keeps the superseded
        record for as long as the lease it was granted runs —
        degraded but never wrong about who is notified."""
        zone, auth, middleware, resolver = build_world(make_host, simulator)
        resolve(resolver, simulator)
        middleware.detach()
        fresh = DNScup(auth, policy=DynamicLeasePolicy(0.0)).attach()
        zone.replace_address("www.example.com", ["172.18.0.2"])
        simulator.run()
        # No push happened (no lease state), cache still has old data.
        assert fresh.notification.stats.notifications_sent == 0
        entry = resolver.cache.peek("www.example.com", RRType.A)
        assert A("172.18.0.2") not in entry.rrset


def bare_header(opcode, msg_id=0x4D2):
    """A 12-byte DNS header with ``opcode``, every count zero."""
    return struct.pack("!6H", msg_id, opcode << 11, 0, 0, 0, 0)


UNASSIGNED_OPCODES = (3, 7, 8, 9, 10, 11, 12, 13, 14, 15)


class TestUnassignedOpcodes:
    """RFC 1035 §4.1.1 leaves opcodes 3 and 7-15 unassigned: a header
    carrying one is answered NOTIMP by the authoritative server and
    dropped by the cache, never a reason for ``run()`` to die."""

    @pytest.mark.parametrize("stream", [False, True],
                             ids=["datagram", "stream"])
    def test_every_opcode_to_server_and_cache(self, make_host, simulator,
                                              stream):
        zone, auth, middleware, resolver = build_world(make_host, simulator)
        prober = make_host("10.9.0.1").socket()
        replies = {"10.1.0.1": [], "10.2.0.1": []}

        def record(payload, src, dst):
            flags = struct.unpack("!H", payload[2:4])[0]
            replies[src[0]].append(((flags >> 11) & 0xF, flags & 0xF))

        prober.on_receive(record)
        prober.on_receive_stream(record)
        send = prober.send_stream if stream else prober.send
        for opcode in range(16):
            for address in replies:
                send(bare_header(opcode), (address, 53))
        simulator.run()
        # The server answers each unassigned opcode NOTIMP (rcode 4),
        # its raw bits mirrored; the cache answers none of them.
        assert {opcode for opcode, rcode in replies["10.1.0.1"]
                if rcode == 4} >= set(UNASSIGNED_OPCODES)
        assert not {opcode for opcode, _ in replies["10.2.0.1"]} & set(
            UNASSIGNED_OPCODES)
        assert auth.stats.malformed == 0
        # Both still serve afterwards.
        assert resolve(resolver, simulator)
        assert resolver.cache.peek("www.example.com", RRType.A) is not None


class TestUnreachableCache:
    def test_dead_cache_marked_then_recovers(self, make_host, simulator,
                                             network):
        zone, auth, middleware, resolver = build_world(
            make_host, simulator,
            notify_retry=RetryPolicy(initial_timeout=0.3, max_attempts=2))
        resolve(resolver, simulator)
        # Partition the cache: 100% loss server -> cache.
        network.set_link_profile("10.1.0.1", "10.2.0.1",
                                 LinkProfile(loss_rate=0.9999))
        zone.replace_address("www.example.com", ["172.18.0.3"])
        simulator.run()
        assert ("10.2.0.1", 53) in middleware.notification.unreachable
        stale = resolver.cache.peek("www.example.com", RRType.A)
        assert A("172.18.0.3") not in stale.rrset

        # Partition heals; the next change is delivered and the cache
        # leaves the unreachable set.
        network.set_link_profile("10.1.0.1", "10.2.0.1", LinkProfile())
        zone.replace_address("www.example.com", ["172.18.0.4"])
        simulator.run()
        assert ("10.2.0.1", 53) not in middleware.notification.unreachable
        entry = resolver.cache.peek("www.example.com", RRType.A)
        assert entry.rrset.rdatas == (A("172.18.0.4"),)

    def test_lease_expires_during_partition_no_late_push(
            self, make_host, simulator, network):
        """A change after the lease lapsed must not notify at all —
        the obligation ended with the lease."""
        zone, auth, middleware, resolver = build_world(make_host, simulator)
        resolve(resolver, simulator)
        lease = next(iter(middleware.table))
        simulator.run_until(lease.expires_at + 1.0)
        zone.replace_address("www.example.com", ["172.18.0.5"])
        simulator.run()
        assert middleware.notification.stats.no_holders == 1
        assert middleware.notification.stats.notifications_sent == 0


class TestConcurrentChanges:
    def test_rapid_fire_changes_all_delivered_in_order(self, make_host,
                                                       simulator):
        """A burst of changes yields pushes whose final state matches
        the zone (last-writer-wins at the cache)."""
        zone, auth, middleware, resolver = build_world(make_host, simulator)
        resolve(resolver, simulator)
        for step in range(10):
            zone.replace_address("www.example.com", [f"172.19.0.{step + 1}"])
        simulator.run()
        stats = middleware.notification.stats
        assert stats.notifications_sent == 10
        assert stats.acks_received == 10
        entry = resolver.cache.peek("www.example.com", RRType.A)
        assert entry.rrset.rdatas == (A("172.19.0.10"),)

    def test_change_storm_with_loss_converges(self, make_host, simulator,
                                              network):
        """Loss + retransmission can reorder deliveries; the cache may
        transiently regress but the system must converge once a final
        quiet change goes through."""
        zone, auth, middleware, resolver = build_world(
            make_host, simulator,
            notify_retry=RetryPolicy(initial_timeout=0.4, max_attempts=5))
        resolve(resolver, simulator)
        network.set_link_profile("10.1.0.1", "10.2.0.1",
                                 LinkProfile(loss_rate=0.4))
        for step in range(5):
            zone.replace_address("www.example.com", [f"172.21.0.{step + 1}"])
            simulator.run_until(simulator.now + 0.05)
        simulator.run()
        # Quiet-period change: everything in flight has settled.
        zone.replace_address("www.example.com", ["172.21.0.99"])
        simulator.run()
        entry = resolver.cache.peek("www.example.com", RRType.A)
        assert entry.rrset.rdatas == (A("172.21.0.99"),)
