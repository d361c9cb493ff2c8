"""Tests for the observability layer: trace bus, metrics, capture, wiring."""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DNScupConfig, DynamicLeasePolicy, attach_dnscup
from repro.dnslib import make_query, Name, RRType
from repro.net import Host, LinkProfile, Network, Simulator
from repro.obs import (
    EVENT_NAMES,
    LEASE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Observability,
    Registry,
    TraceBus,
    WireCapture,
    diff_summaries,
    flatten_summary,
    load_capture,
    load_trace_events,
    sniff_header,
    summarize_events,
)
from repro.obs.trace import EVENT_FIELDS, fields_dict
from repro.server import AuthoritativeServer, RecursiveResolver, StubResolver
from repro.zone import load_zone
from tests.conftest import pack


#: One datagram's unrendered ``net.*`` fields: src, dst, size.
DATAGRAM = (("10.0.0.1", 53), ("10.0.0.2", 40000), 44)


class TestTraceBus:
    def test_stamps_with_simulator_clock(self, simulator):
        bus = TraceBus(simulator)
        simulator.schedule_at(5.0,
                              lambda: bus.emit("push.keepalive", None, 1))
        simulator.run()
        assert list(bus) == [(5.0, "push.keepalive", (1,))]

    def test_explicit_timestamp_wins(self, simulator):
        bus = TraceBus(simulator)
        bus.emit("push.keepalive", 42.0, 3)
        assert list(bus) == [(42.0, "push.keepalive", (3,))]

    def test_clockless_bus_defaults_to_zero(self):
        bus = TraceBus()
        bus.emit("net.drop", None, *DATAGRAM)
        assert list(bus) == [(0.0, "net.drop", DATAGRAM)]

    def test_ring_buffer_drops_oldest(self):
        bus = TraceBus(capacity=3)
        for i in range(5):
            bus.emit("net.deliver", t=float(i))
        assert bus.emitted == 5
        assert [t for t, _n, _f in bus] == [2.0, 3.0, 4.0]

    def test_counts_and_select(self):
        bus = TraceBus()
        bus.emit("net.deliver", t=0.0)
        bus.emit("net.drop", t=1.0)
        bus.emit("net.deliver", t=2.0)
        assert bus.counts() == {"net.deliver": 2, "net.drop": 1}
        assert [t for t, _n, _f in bus.select("net.drop")] == [1.0]

    def test_clear_keeps_emitted_total(self):
        bus = TraceBus()
        bus.emit("net.drop", t=0.0)
        bus.clear()
        assert len(bus) == 0
        assert bus.emitted == 1
        # Deliberate discards are `cleared`, never `dropped` — dropped
        # is reserved for ring overflow (an incomplete trace).
        assert bus.cleared == 1
        assert bus.dropped == 0

    def test_dropped_counts_overflow_only(self):
        bus = TraceBus(capacity=2)
        for i in range(3):
            bus.emit("net.deliver", t=float(i))
        assert bus.dropped == 1 and bus.cleared == 0
        bus.clear()
        assert bus.dropped == 1 and bus.cleared == 2
        assert bus.stats() == {"capacity": 2, "emitted": 3, "retained": 0,
                               "dropped": 1, "cleared": 2}

    def test_export_meta_record_carries_stats(self):
        bus = TraceBus(capacity=2)
        for i in range(3):
            bus.emit("net.deliver", float(i), *DATAGRAM)
        buf = io.StringIO()
        assert bus.export_jsonl(buf, meta=True) == 3  # meta + 2 retained
        buf.seek(0)
        events = load_trace_events(buf, strict=True)
        assert events[0][1] == "trace.meta"
        assert fields_dict(events[0])["dropped"] == 1
        summary = summarize_events(events)
        assert summary["bus"]["dropped"] == 1
        assert summary["bus"]["cleared"] == 0
        # The meta record is bookkeeping, not an event of the run.
        assert summary["span"]["count"] == 2
        assert "trace.meta" not in summary["events"]

    def test_default_export_has_no_meta_record(self):
        bus = TraceBus()
        bus.emit("net.deliver", 0.0, *DATAGRAM)
        buf = io.StringIO()
        assert bus.export_jsonl(buf) == 1
        assert summarize_events(load_trace_events(
            io.StringIO(buf.getvalue())))["bus"] is None

    def test_strict_load_rejects_unknown_event_names(self):
        good = '{"t":1.0,"event":"notify.send","seq":1}\n'
        bad = good + '{"t":2.0,"event":"notify.sent"}\n'
        assert len(load_trace_events(io.StringIO(bad))) == 2  # lax: loads
        with pytest.raises(ValueError, match="line 2.*notify.sent"):
            load_trace_events(io.StringIO(bad), strict=True)
        assert len(load_trace_events(io.StringIO(good), strict=True)) == 1

    @pytest.mark.parametrize("line, problem", [
        ("3", "not a JSON object"),
        ("[1,2]", "not a JSON object"),
        ('{"t": null, "event": "net.drop"}', "float"),
        ('{"t": 2.0, "event": "net.dr', "Unterminated string"),
        ('{"t": 2.0}', "missing 'event'"),
    ], ids=["number", "array", "null-t", "truncated", "no-event"])
    def test_malformed_line_is_a_value_error_naming_the_line(
            self, line, problem):
        # Each used to escape as AttributeError / TypeError / a
        # JSONDecodeError with no trace line number.
        text = '{"t":1.0,"event":"push.keepalive","count":1}\n\n' + line
        for strict in (False, True):
            with pytest.raises(ValueError) as caught:
                load_trace_events(io.StringIO(text), strict=strict)
            assert type(caught.value) is ValueError
            assert str(caught.value).startswith("trace line 3: ")
            assert problem in str(caught.value)

    def test_jsonl_round_trip(self):
        bus = TraceBus()
        leg = (1, "10.0.0.1:53", "www.example.com.", "A")
        bus.emit("notify.send", 1.5, *leg, 77)
        bus.emit("notify.ack", 1.6, *leg, 0.1)
        buf = io.StringIO()
        assert bus.export_jsonl(buf) == 2
        buf.seek(0)
        # Fields that are already text load back as the record held them.
        assert load_trace_events(buf) == list(bus)

    def test_export_renders_unrendered_fields(self):
        bus = TraceBus()
        bus.emit("lease.grant", 2.0, ("10.0.0.2", 53),
                 Name.from_text("WWW.example.com"), RRType.A, 60.0)
        buf = io.StringIO()
        bus.export_jsonl(buf)
        assert buf.getvalue() == (
            '{"t":2.0,"event":"lease.grant","cache":"10.0.0.2:53",'
            '"length":60.0,"name":"WWW.example.com.","rrtype":"A"}\n')
        # The ring still holds the values, not their text.
        assert bus.events[0][2][0] == ("10.0.0.2", 53)

    def test_export_is_byte_stable(self):
        def export():
            bus = TraceBus()
            bus.emit("notify.send", 1.0, 1, "10.0.0.1:53",
                     "www.example.com.", "A", 9)
            buf = io.StringIO()
            bus.export_jsonl(buf)
            return buf.getvalue()

        first = export()
        assert first == export()
        # t and event lead; remaining keys sorted.
        assert first.startswith(
            '{"t":1.0,"event":"notify.send","cache":"10.0.0.1:53","id":9,')

    def test_event_name_contract_is_nonempty(self):
        assert "notify.send" in EVENT_NAMES
        assert "change.detected" in EVENT_NAMES
        assert all("." in name for name in EVENT_NAMES)


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_callable(self):
        plain = Gauge("g")
        plain.set(2.5)
        assert plain.value == 2.5
        backing = [7]
        live = Gauge("live", fn=lambda: backing[0])
        assert live.value == 7.0
        backing[0] = 9
        assert live.value == 9.0
        with pytest.raises(ValueError):
            live.set(1.0)

    def test_histogram_buckets_and_exact_stats(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 99.0):
            hist.observe(value)
        # Inclusive upper bounds; overflow lands in the +inf bucket.
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == 0.5 + 1.0 + 1.5 + 99.0
        assert hist.min == 0.5 and hist.max == 99.0
        assert hist.mean == hist.sum / 4

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_export_json_is_strict_json(self, tmp_path):
        # Regression: the implicit +inf bucket bound (and any non-finite
        # stat) used to serialize as the non-JSON `Infinity` token.
        registry = Registry()
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        hist.observe(float("inf"))
        path = tmp_path / "metrics.json"
        registry.export_json(str(path))

        def reject_constant(token):
            raise AssertionError(f"non-JSON token in export: {token}")

        snap = json.loads(path.read_text(), parse_constant=reject_constant)
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["buckets"][-1][0] is None  # +inf bound
        assert snap["histograms"]["h"]["sum"] is None  # inf sum -> null
        assert snap["histograms"]["h"]["max"] is None
        assert snap["histograms"]["h"]["min"] == 0.5

    def test_bisect_observe_matches_linear_scan(self):
        # The bisect fast path must land every value in the same bucket
        # the old linear scan over inclusive upper bounds chose.
        bounds = (0.001, 0.01, 0.1, 1.0)
        hist = Histogram("h", buckets=bounds)
        values = [0.0005, 0.001, 0.0011, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0]
        for value in values:
            hist.observe(value)
        linear = [0] * (len(bounds) + 1)
        for value in values:
            for i, bound in enumerate(bounds):
                if value <= bound:
                    linear[i] += 1
                    break
            else:
                linear[-1] += 1
        assert hist.counts == linear
        # Snapshot shape unchanged by the bisect rewrite.
        assert [count for _bound, count in hist.as_dict()["buckets"]] \
            == linear

    def test_registry_idempotent_and_collision_checked(self):
        registry = Registry()
        assert registry.counter("x") is registry.counter("x")
        registry.gauge("g")
        with pytest.raises(ValueError):
            registry.counter("g")
        with pytest.raises(ValueError):
            registry.histogram("x")
        assert registry.names() == ["g", "x"]

    def test_snapshot_shape_and_export(self, tmp_path):
        registry = Registry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", LEASE_BUCKETS).observe(200.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        path = tmp_path / "metrics.json"
        registry.export_json(str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(snap))


class TestWireCapture:
    def test_sniff_header(self):
        query = make_query("www.example.com", RRType.A)
        msg_id, opcode, qr = sniff_header(query.to_wire())
        assert msg_id == query.id
        assert opcode == "QUERY"
        assert qr is False
        assert sniff_header(b"") == (None, "?", None)
        assert sniff_header(b"\x12\x34") == (0x1234, "?", None)

    def test_record_and_fates(self):
        capture = WireCapture()
        wire = make_query("a.example.", RRType.A).to_wire()
        capture.record(1.0, "udp", ("a", 1), ("b", 53), wire, "delivered")
        capture.record(2.0, "udp", ("a", 1), ("b", 53), wire, "dropped")
        assert len(capture) == 2
        assert capture.fates() == {"delivered": 1, "dropped": 1}
        assert capture.records[0]["src"] == "a:1"
        assert capture.records[0]["size"] == len(wire)

    def test_capacity_bound(self):
        capture = WireCapture(capacity=1)
        capture.record(1.0, "udp", ("a", 1), ("b", 1), b"xx", "delivered")
        capture.record(2.0, "udp", ("a", 1), ("b", 1), b"xx", "delivered")
        assert len(capture) == 1
        assert capture.dropped == 1

    def test_jsonl_round_trip(self):
        capture = WireCapture()
        capture.record(1.0, "udp", ("a", 1), ("b", 1), b"\x00\x01\x80",
                       "delivered", dup=True)
        buf = io.StringIO()
        assert capture.export_jsonl(buf) == 1
        buf.seek(0)
        assert load_capture(buf) == capture.records


class TestAnalyze:
    def test_summarize_counts_and_windows(self):
        events = pack([
            (10.0, "change.detected", {"seq": 1}),
            (10.0, "notify.send", {"seq": 1}),
            (10.0, "notify.send", {"seq": 1}),
            (10.2, "notify.ack", {"seq": 1, "rtt": 0.2}),
            (10.5, "notify.ack", {"seq": 1, "rtt": 0.5}),
            (20.0, "change.detected", {"seq": 2}),
            (20.0, "notify.send", {"seq": 2}),
            (23.0, "notify.timeout", {"seq": 2}),
        ])
        summary = summarize_events(events)
        assert summary["notify"]["sends"] == 3
        assert summary["notify"]["acks"] == 2
        assert summary["notify"]["timeouts"] == 1
        assert summary["notify"]["ack_rtt"]["sum"] == 0.2 + 0.5
        assert summary["changes"]["detected"] == 2
        # Change 1's window runs to the *last* ack; change 2 never acked.
        assert summary["changes"]["settled_with_ack"] == 1
        assert summary["changes"]["consistency_window"]["sum"] == 0.5

    def test_empty_summary(self):
        summary = summarize_events([])
        assert summary["span"]["count"] == 0
        assert summary["notify"]["ack_rtt"]["mean"] is None

    def test_single_event_summary(self):
        summary = summarize_events(pack([(2.5, "notify.ack",
                                          {"seq": 1, "rtt": 0.25})]))
        assert summary["span"] == {"first": 2.5, "last": 2.5, "count": 1}
        assert summary["notify"]["acks"] == 1
        assert summary["notify"]["ack_rtt"]["sum"] == 0.25
        assert summary["notify"]["ack_rtt"]["min"] == 0.25
        # An ack with no detection event settles nothing.
        assert summary["changes"]["consistency_window"]["count"] == 0

    def test_flatten_and_diff(self):
        a = summarize_events([(1.0, "net.drop", {})])
        b = summarize_events([(1.0, "net.deliver", {})])
        flat = flatten_summary(a)
        assert flat["net.dropped"] == 1
        assert diff_summaries(a, a) == []
        diff = dict((key, (left, right))
                    for key, left, right in diff_summaries(a, b))
        assert diff["net.dropped"] == (1, 0)
        assert diff["net.delivered"] == (0, 1)

    def test_diff_empty_against_single_event(self):
        empty = summarize_events([])
        assert diff_summaries(empty, empty) == []
        single = summarize_events([(1.0, "net.drop", {})])
        diff = dict((key, (left, right))
                    for key, left, right in diff_summaries(empty, single))
        assert diff["net.dropped"] == (0, 1)
        assert diff["span.count"] == (0, 1)
        assert diff["span.first"] == (None, 1.0)


#: Arbitrary JSON-safe field values (finite floats: NaN never compares
#: equal, and the loader should see exactly what was emitted).
_json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-2**53, max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8)

#: (event name, one JSON-safe value per field of its schema).
_named_fields = st.sampled_from(sorted(EVENT_NAMES)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(
        *[_json_values] * len(EVENT_FIELDS[name]))))

_events = st.lists(st.tuples(
    st.floats(allow_nan=False, allow_infinity=False), _named_fields),
    max_size=12)


class TestTraceRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(events=_events)
    def test_export_load_round_trips_any_json_safe_fields(self, events):
        bus = TraceBus()
        for t, (name, fields) in events:
            bus.emit(name, t, *fields)
        buf = io.StringIO()
        assert bus.export_jsonl(buf) == len(events)
        buf.seek(0)
        assert load_trace_events(buf, strict=True) == list(bus)


class TestObservabilityWiring:
    def test_bind_single_reader_reads_through(self):
        obs = Observability(trace=TraceBus(), registry=Registry())
        backing = [3]
        obs.bind("x", lambda: backing[0])
        assert obs.registry.snapshot()["gauges"]["x"] == 3.0

    def test_bind_repeated_sums(self):
        obs = Observability(trace=TraceBus(), registry=Registry())
        obs.bind("x", lambda: 2)
        obs.bind("x", lambda: 5)
        assert obs.registry.snapshot()["gauges"]["x"] == 7.0

    def test_for_simulator_tracks_event_loop(self):
        simulator = Simulator()
        obs = Observability.for_simulator(simulator)
        simulator.schedule_at(3.0, lambda: None)
        simulator.run()
        gauges = obs.registry.snapshot()["gauges"]
        assert gauges["sim.now"] == 3.0
        assert gauges["sim.pending"] == 0
        assert obs.registry.counter("sim.events_observed").value == 1

    def test_network_counters_mirrored(self, simulator):
        network = Network(simulator, seed=1)
        obs = Observability.for_simulator(simulator, capture=True)
        obs.observe_network(network)
        network.bind(("b", 1), lambda *a: None)
        network.send(b"hello", ("a", 1), ("b", 1))
        network.send(b"bye", ("a", 1), ("nowhere", 9))
        simulator.run()
        gauges = obs.registry.snapshot()["gauges"]
        assert gauges["net.datagrams_sent"] == 2
        assert gauges["net.datagrams_delivered"] == 1
        assert gauges["net.datagrams_unreachable"] == 1
        assert obs.trace.counts() == {"net.deliver": 1, "net.unreachable": 1}
        assert obs.capture.fates() == {"delivered": 1, "unreachable": 1}

    def test_middleware_instrumented_end_to_end(self, simulator):
        network = Network(simulator, seed=2)
        obs = Observability.for_simulator(simulator)
        obs.observe_network(network)
        zone = load_zone("""\
$ORIGIN example.com.
$TTL 300
@    IN SOA ns1 admin 1 7200 900 604800 300
@    IN NS  ns1
ns1  IN A   10.0.0.1
www  IN A   10.0.0.10
""")
        auth = AuthoritativeServer(Host(network, "10.0.0.1"), [zone])
        attach_dnscup(auth, policy=DynamicLeasePolicy(0.0),
                      config=DNScupConfig(observability=obs))
        resolver = RecursiveResolver(Host(network, "10.0.0.2"),
                                     [("10.0.0.1", 53)], dnscup_enabled=True)
        client = StubResolver(Host(network, "10.0.0.3"), ("10.0.0.2", 53),
                              cache_seconds=0.0)
        client.lookup("www.example.com", lambda addrs, rc: None)
        simulator.run()
        zone.replace_address("www.example.com", ["10.0.0.99"])
        simulator.run()

        counts = obs.trace.counts()
        assert counts["lease.grant"] == 1
        assert counts["change.detected"] == 1
        assert counts["notify.send"] == 1
        assert counts["notify.ack"] == 1
        assert counts["change.settled"] == 1
        snap = obs.registry.snapshot()
        assert snap["gauges"]["lease.grants"] == 1
        assert snap["gauges"]["notify.sent"] == 1
        assert snap["gauges"]["notify.acked"] == 1
        assert snap["gauges"]["notify.in_flight"] == 0
        assert snap["histograms"]["lease.length"]["count"] == 1
        assert snap["histograms"]["notify.ack_rtt"]["count"] == 1
        assert snap["histograms"]["notify.consistency_window"]["count"] == 1
        # The trace-derived summary reproduces the live histograms exactly.
        summary = summarize_events(list(obs.trace.events))
        assert summary["notify"]["ack_rtt"]["sum"] \
            == snap["histograms"]["notify.ack_rtt"]["sum"]
        assert summary["changes"]["consistency_window"]["sum"] \
            == snap["histograms"]["notify.consistency_window"]["sum"]

    def test_two_middlewares_aggregate_into_one_registry(self, simulator):
        network = Network(simulator, seed=3)
        obs = Observability.for_simulator(simulator)
        middlewares = []
        for i, origin in enumerate(("alpha.test.", "beta.test.")):
            zone = load_zone(f"""\
$ORIGIN {origin}
$TTL 300
@    IN SOA ns1 admin 1 7200 900 604800 300
@    IN NS  ns1
ns1  IN A   10.0.{i}.1
www  IN A   10.0.{i}.10
""")
            auth = AuthoritativeServer(Host(network, f"10.0.{i}.1"), [zone])
            middlewares.append(attach_dnscup(
                auth, policy=DynamicLeasePolicy(0.0),
                config=DNScupConfig(observability=obs)))
        # One grant on each server's table; the shared gauge sums both.
        middlewares[0].table.grant(("10.1.0.1", 53), "www.alpha.test.",
                                   RRType.A, 0.0, 60.0)
        middlewares[1].table.grant(("10.1.0.2", 53), "www.beta.test.",
                                   RRType.A, 0.0, 60.0)
        gauges = obs.registry.snapshot()["gauges"]
        assert gauges["lease.grants"] == 2.0
        assert gauges["lease.active"] == 2.0
        assert obs.trace.counts()["lease.grant"] == 2
        # Both grants landed in the one shared lease-length histogram.
        hist = obs.registry.snapshot()["histograms"]["lease.length"]
        assert hist["count"] == 2


class TestLinkStats:
    def test_per_link_fate_counters(self, simulator):
        network = Network(simulator, seed=7)
        lossy = LinkProfile(loss_rate=0.999)
        network.set_link_profile("a", "b", lossy)
        network.bind(("b", 1), lambda *a: None)
        for _ in range(40):
            network.send(b"x", ("a", 1), ("b", 1))
            network.send(b"x", ("a", 1), ("c", 1))  # default link, unbound
        simulator.run()
        assert lossy.stats.dropped + lossy.stats.delivered == 40
        assert lossy.stats.dropped >= 35
        default = network.default_profile.stats
        assert default.unreachable == 40
        # Aggregate stats agree with the per-link split.
        assert network.stats.datagrams_lost == lossy.stats.dropped
        assert network.stats.datagrams_unreachable == default.unreachable

    def test_duplication_counted_per_link(self, simulator):
        network = Network(simulator, seed=8)
        dupful = LinkProfile(duplicate_rate=0.5)
        network.set_link_profile("a", "b", dupful)
        network.bind(("b", 1), lambda *a: None)
        for _ in range(100):
            network.send(b"x", ("a", 1), ("b", 1))
        simulator.run()
        assert dupful.stats.duplicated > 20
        assert dupful.stats.duplicated == network.stats.datagrams_duplicated
        assert dupful.stats.delivered == 100 + dupful.stats.duplicated

    def test_replace_starts_fresh_counters(self):
        import dataclasses
        profile = LinkProfile(loss_rate=0.1)
        profile.stats.dropped = 5
        fresh = dataclasses.replace(profile)
        assert fresh.stats.dropped == 0
        assert fresh.loss_rate == 0.1

    def test_reset(self):
        profile = LinkProfile()
        profile.stats.delivered = 3
        profile.stats.reset()
        assert profile.stats.delivered == 0
