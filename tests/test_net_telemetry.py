"""The live telemetry plane: exposition format, endpoint, fail-fast.

Pure pieces (render/parse/sanitize) run everywhere; the endpoint and
fail-fast pieces drive a reduced live testbed over real loopback
sockets, mirroring the CI ``live-transport`` telemetry step.
"""

from __future__ import annotations

import pytest

from repro.net import (
    TelemetryError,
    loopback_available,
    parse_exposition,
    render_exposition,
    sanitize_metric_name,
)
from repro.obs import LATENCY_BUCKETS, Registry, audit_trace
from repro.sim import TestbedConfig, make_live_testbed, run_figure7_scenario

SMALL = TestbedConfig(zone_count=8, observability=True)

needs_loopback = pytest.mark.skipif(
    not loopback_available(),
    reason="loopback UDP unavailable on this platform")


class TestSanitize:
    def test_dots_become_underscores_under_prefix(self):
        assert sanitize_metric_name("net.datagrams_sent") \
            == "dnscup_net_datagrams_sent"

    def test_arbitrary_punctuation_is_flattened(self):
        assert sanitize_metric_name("a.b-c/d e", prefix="x") == "x_a_b_c_d_e"

    def test_empty_prefix_keeps_bare_name(self):
        assert sanitize_metric_name("lease.grants", prefix="") \
            == "lease_grants"


def sample_registry():
    registry = Registry()
    registry.counter("notify.sent").inc(7)
    registry.gauge("telemetry.ticks").set(3.0)
    hist = registry.histogram("notify.rtt", LATENCY_BUCKETS)
    for value in (0.0005, 0.002, 0.002, 5.0):
        hist.observe(value)
    return registry


class TestExposition:
    def test_round_trip_recovers_every_sample(self):
        registry = sample_registry()
        text = render_exposition(registry.snapshot())
        samples = parse_exposition(text)
        assert samples["dnscup_notify_sent"] == 7.0
        assert samples["dnscup_telemetry_ticks"] == 3.0
        assert samples["dnscup_notify_rtt_count"] == 4.0
        assert samples["dnscup_notify_rtt_sum"] == pytest.approx(5.0045)
        assert samples['dnscup_notify_rtt_bucket{le="+Inf"}'] == 4.0

    def test_histogram_buckets_are_cumulative(self):
        text = render_exposition(sample_registry().snapshot())
        samples = parse_exposition(text)
        buckets = [(name, value) for name, value in samples.items()
                   if name.startswith("dnscup_notify_rtt_bucket")]
        values = [value for _name, value in buckets]
        assert values == sorted(values), "bucket counts must be cumulative"
        assert buckets[-1][0].endswith('le="+Inf"}')
        assert buckets[-1][1] == samples["dnscup_notify_rtt_count"]

    def test_type_lines_precede_samples(self):
        lines = render_exposition(sample_registry().snapshot()).splitlines()
        assert "# TYPE dnscup_notify_sent counter" in lines
        assert "# TYPE dnscup_telemetry_ticks gauge" in lines
        assert "# TYPE dnscup_notify_rtt histogram" in lines
        assert lines.index("# TYPE dnscup_notify_sent counter") \
            < lines.index("dnscup_notify_sent 7")

    def test_render_is_deterministic(self):
        first = render_exposition(sample_registry().snapshot())
        second = render_exposition(sample_registry().snapshot())
        assert first == second

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_exposition("a 1\na 2\n")

    def test_parse_rejects_bad_values(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_exposition("a one\n")

    def test_parse_rejects_bare_value(self):
        with pytest.raises(ValueError, match="no sample name"):
            parse_exposition("42\n")

    def test_parse_skips_comments_and_blanks(self):
        assert parse_exposition("# HELP x\n\nx 1\n") == {"x": 1.0}


@needs_loopback
class TestLivePlane:
    def test_scrape_audits_and_matches_batch(self):
        with make_live_testbed(SMALL) as testbed:
            plane = testbed.enable_telemetry(interval=0.05)
            run_figure7_scenario(testbed, updates=3)
            body = plane.scrape()
            samples = parse_exposition(body)
            assert samples, "mid-run scrape produced no samples"
            assert "dnscup_telemetry_audit_events" in samples
            assert "dnscup_telemetry_audit_peak_tracked_spans" in samples
            assert samples["dnscup_telemetry_audit_violations"] == 0.0
            plane.stop()
            # The tap delivered every event, in order: the plane's
            # verdict is the post-hoc verdict over the recorded trace.
            events = list(testbed.observability.trace.events)
            stream = plane.auditor.report()
            batch = audit_trace(events)
            assert stream.ok and batch.ok
            assert stream.checks == batch.checks
            assert stream.events_audited == len(events)
            assert plane.violations == []
            # Final document reflects the completed run.
            final = parse_exposition(plane.document)
            assert final["dnscup_telemetry_audit_events"] == len(events)

    def test_enable_is_idempotent_and_requires_observability(self):
        with make_live_testbed(SMALL) as testbed:
            plane = testbed.enable_telemetry()
            assert testbed.enable_telemetry() is plane
            assert plane.endpoint[0] == "127.0.0.1"
        with make_live_testbed(TestbedConfig(zone_count=8)) as bare:
            with pytest.raises(ValueError):
                bare.enable_telemetry()

    def test_fail_fast_aborts_the_drain(self):
        with make_live_testbed(SMALL) as testbed:
            testbed.enable_telemetry(interval=0.05)
            # An orphan ack — no grant, change, or send before it — is
            # a causality violation the moment the tap feeds it.
            testbed.observability.trace.emit(
                "notify.ack", None, 99, ("10.9.9.9", 53),
                "phantom.example.com.", "A", 0.001)
            with pytest.raises(TelemetryError, match="causality"):
                testbed.simulator.run()

    def test_fail_fast_off_keeps_the_run_alive(self):
        with make_live_testbed(SMALL) as testbed:
            plane = testbed.enable_telemetry(interval=0.05, fail_fast=False)
            testbed.observability.trace.emit(
                "notify.ack", None, 99, ("10.9.9.9", 53),
                "phantom.example.com.", "A", 0.001)
            testbed.simulator.run()
            assert [v.kind for v in plane.violations] == ["causality"]
