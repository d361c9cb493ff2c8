"""Tests for hosts, sockets, and request/response matching."""

import pytest

from repro.dnslib import Message, RRType, make_query, make_response
from repro.net import Host, NetworkError, RetryPolicy


@pytest.fixture
def pair(network, make_host):
    return make_host("10.0.0.1"), make_host("10.0.0.2")


class TestSockets:
    def test_ephemeral_ports_distinct(self, pair):
        host, _ = pair
        a, b = host.socket(), host.socket()
        assert a.port != b.port
        assert a.port >= 49152

    def test_ephemeral_ports_wrap_inside_the_range(self, pair):
        host, _ = pair
        first = host.socket()
        host._ephemeral = 65535
        ports = [host.socket().port for _ in range(3)]
        # 65535, then back to the bottom, skipping the port still bound.
        assert ports == [65535, first.port + 1, first.port + 2]
        assert first.port == 49152

    def test_ephemeral_exhaustion_raises_and_close_frees_a_port(self, pair):
        host, _ = pair
        sockets = [host.socket() for _ in range(49152, 65536)]
        assert {sock.port for sock in sockets} == set(range(49152, 65536))
        with pytest.raises(NetworkError):
            host.socket()
        sockets[1000].close()
        assert host.socket().port == sockets[1000].port

    def test_closed_sockets_leave_the_host_table(self, pair):
        host, _ = pair
        keep = host.socket(1234)
        for _ in range(50):
            host.socket().close()
        assert repr(host) == "Host('10.0.0.1', sockets=[1234])"
        # A port re-bound after close belongs to the new socket: closing
        # the stale one again must not evict it.
        stale = host.socket(2000)
        stale.close()
        fresh = host.socket(2000)
        stale.close()
        assert repr(host) == "Host('10.0.0.1', sockets=[1234, 2000])"
        fresh.close()
        keep.close()
        assert repr(host) == "Host('10.0.0.1', sockets=[])"

    def test_dns_socket_is_53(self, pair):
        host, _ = pair
        assert host.dns_socket().port == 53

    def test_close_unbinds(self, pair, network):
        host, _ = pair
        sock = host.socket(1234)
        assert network.is_bound(("10.0.0.1", 1234))
        sock.close()
        assert not network.is_bound(("10.0.0.1", 1234))

    def test_host_close_closes_all(self, pair, network):
        host, _ = pair
        host.socket(1000)
        host.socket(1001)
        host.close()
        assert not network.is_bound(("10.0.0.1", 1000))
        assert not network.is_bound(("10.0.0.1", 1001))

    def test_plain_send_receive(self, pair, simulator):
        a, b = pair
        received = []
        server = b.socket(53)
        server.on_receive(lambda p, s, d: received.append(p))
        client = a.socket()
        client.send(b"\x00\x01\x00\x00ping", ("10.0.0.2", 53))
        simulator.run()
        assert received == [b"\x00\x01\x00\x00ping"]


class TestRequestResponse:
    def echo_server(self, host):
        sock = host.dns_socket()

        def handle(payload, src, dst):
            message = Message.from_wire(payload)
            response = make_response(message)
            sock.send(response.to_wire(), src)

        sock.on_receive(handle)
        return sock

    def test_response_matched_by_id(self, pair, simulator):
        a, b = pair
        self.echo_server(b)
        client = a.socket()
        query = make_query("x.example.", RRType.A)
        results = []
        client.request(query.to_wire(), ("10.0.0.2", 53), query.id,
                       lambda p, s: results.append((p, s)))
        simulator.run()
        assert len(results) == 1
        payload, src = results[0]
        assert payload is not None
        assert Message.from_wire(payload).id == query.id
        assert src == ("10.0.0.2", 53)

    def test_timeout_reports_none(self, pair, simulator):
        a, _ = pair
        client = a.socket()
        results = []
        client.request(b"\x00\x09\x00\x00", ("10.9.9.9", 53), 9,
                       lambda p, s: results.append((p, s)),
                       retry=RetryPolicy(initial_timeout=0.5, max_attempts=2))
        simulator.run()
        assert results == [(None, None)]
        # Two attempts were actually sent.
        assert a.network.stats.datagrams_sent == 2

    def test_retransmission_recovers_from_loss(self, simulator, network,
                                               make_host):
        from repro.net import LinkProfile
        a = make_host("10.0.0.1")
        b = make_host("10.0.0.2")
        # Lossy forward path: drop ~50% of datagrams.
        network.set_link_profile("10.0.0.1", "10.0.0.2",
                                 LinkProfile(loss_rate=0.5))
        self.echo_server(b)
        client = a.socket()
        successes = 0
        for i in range(30):
            query = make_query(f"q{i}.example.", RRType.A)
            results = []
            client.request(query.to_wire(), ("10.0.0.2", 53), query.id,
                           lambda p, s, r=results: r.append(p),
                           retry=RetryPolicy(initial_timeout=0.2,
                                             max_attempts=6))
            simulator.run()
            if results and results[0] is not None:
                successes += 1
        assert successes >= 27  # 6 tries at 50% loss: ~1.6% failure each

    def test_duplicate_outstanding_request_rejected(self, pair):
        a, _ = pair
        client = a.socket()
        client.request(b"\x00\x07\x00\x00", ("10.0.0.2", 53), 7,
                       lambda p, s: None)
        with pytest.raises(NetworkError):
            client.request(b"\x00\x07\x00\x00", ("10.0.0.2", 53), 7,
                           lambda p, s: None)

    def test_query_payload_does_not_settle_pending(self, pair, simulator):
        """A server-initiated QUERY reusing an ID must not be mistaken
        for the response to our outstanding request (QR-bit check)."""
        a, b = pair
        client = a.socket(1100)
        fallthrough = []
        client.on_receive(lambda p, s, d: fallthrough.append(p))
        matched = []
        client.request(b"\x00\x2a\x00\x00", ("10.0.0.2", 53), 0x2A,
                       lambda p, s: matched.append(p),
                       retry=RetryPolicy(initial_timeout=5.0, max_attempts=1))
        server = b.socket(53)
        # Same ID 0x2A but QR=0 (a query, e.g. CACHE-UPDATE).
        server.send(b"\x00\x2a\x00\x00query", ("10.0.0.1", 1100))
        simulator.run_until(1.0)
        assert fallthrough and not matched

    def test_late_duplicate_response_goes_to_handler_or_dropped(self, pair,
                                                                simulator):
        a, b = pair
        client = a.socket(1200)
        unmatched = []
        client.on_receive(lambda p, s, d: unmatched.append(p))
        results = []
        client.request(b"\x00\x05\x00\x00", ("10.0.0.2", 53), 5,
                       lambda p, s: results.append(p),
                       retry=RetryPolicy(initial_timeout=1.0, max_attempts=1))
        server = b.socket(53)
        response = b"\x00\x05\x80\x00pong"
        server.send(response, ("10.0.0.1", 1200))
        server.send(response, ("10.0.0.1", 1200))  # duplicate
        simulator.run()
        assert len(results) == 1
        assert len(unmatched) == 1  # the duplicate fell through


class TestRetryPolicy:
    def test_backoff_progression(self):
        policy = RetryPolicy(initial_timeout=1.0, backoff=2.0,
                             max_timeout=5.0, max_attempts=5)
        assert [policy.timeout_for(i) for i in range(1, 6)] == \
            [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_total_budget(self):
        policy = RetryPolicy(initial_timeout=1.0, backoff=2.0,
                             max_timeout=100.0, max_attempts=3)
        assert policy.total_budget() == 7.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(initial_timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_attempt_below_one_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().timeout_for(0)
