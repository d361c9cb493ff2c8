"""Tests for the load-attribution plane (obs/load.py) and its wiring:
multi-tap trace bus, shared bucket quantiles, ledger attribution,
storm detection, and the registry exposure."""

import math
import random

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    Histogram,
    LOAD_STORM_END,
    LOAD_STORM_START,
    LoadLedger,
    Registry,
    StormDetector,
    TraceBus,
    histogram_percentile,
)
from repro.obs.load import (
    CLASS_DELIVER,
    CLASS_NOTIFY,
    CLASS_QUERY,
    CLASS_RENEWAL,
    CLASS_RETRANSMIT,
    DecayedRate,
    OVERFLOW_DOMAIN,
    TAIL_BOUNDS,
)
from tests.conftest import emit_dict, pack


class TestDecayedRate:
    def test_mass_decays_exponentially(self):
        rate = DecayedRate(10.0)
        rate.add(0.0)
        assert rate.rate(0.0) == pytest.approx(0.1)
        # One event, ten seconds later: mass e^-1, rate e^-1 / 10.
        assert rate.rate(10.0) == pytest.approx(math.exp(-1.0) / 10.0)

    def test_rate_tracks_stationary_stream(self):
        # 50 events/s held long past the window converges to ~50/s.
        rate = DecayedRate(10.0)
        last = 0.0
        for i in range(5000):
            last = i * 0.02
            rate.add(last)
        assert rate.rate(last) == pytest.approx(50.0, rel=0.02)

    def test_out_of_order_observation_does_not_decay_backwards(self):
        rate = DecayedRate(10.0)
        rate.add(100.0)
        before = rate.mass
        rate.add(50.0)  # stale timestamp: mass grows, never rewinds
        assert rate.mass == pytest.approx(before + 1.0)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            DecayedRate(0.0)


#: Width of one tail bucket: the stated relative error bound.
TAIL_RATIO = 2.0 ** (1.0 / 8.0)


def nearest_rank(values, quantile):
    """The order statistic a tail estimate stands for (percent scale)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(quantile / 100.0 * len(ordered))) - 1]


def depth_ledger(values, server="s"):
    """A ledger whose ``depth`` tail on ``server`` holds ``values``."""
    ledger = LoadLedger()
    for i, value in enumerate(values):
        ledger.record(server, "a.com", CLASS_NOTIFY, float(i), depth=value)
    return ledger


class TestLogBucketTails:
    def test_bounds_are_the_documented_constant(self):
        assert TAIL_BOUNDS[0] == 0.0
        assert TAIL_BOUNDS[1] == 2.0 ** -30 and TAIL_BOUNDS[-1] == 2.0 ** 30
        assert len(TAIL_BOUNDS) == 482
        assert all(high / low == pytest.approx(TAIL_RATIO)
                   for low, high in zip(TAIL_BOUNDS[1:], TAIL_BOUNDS[2:]))

    def test_quantiles_within_one_bucket_of_nearest_rank(self):
        """p50/p95/p99 lie within one bucket ratio (9.05 %) of the
        nearest-rank order statistic, and zeros read back as exactly 0.

        The tie-heavy stream (98 % zeros, the shape of a synchronized
        storm's inter-arrival gaps) is the case the P² sketches this
        replaced missed by five orders of magnitude: on the storm's gap
        stream they reported p99 = 2.8e-5 s against an exact 1.5 s.
        """
        rng = random.Random(2006)
        streams = {
            "uniform": [rng.random() for _ in range(20000)],
            "lognormal": [rng.lognormvariate(0.0, 2.0)
                          for _ in range(20000)],
            "zeros+exp": [0.0 if rng.random() < 0.98
                          else rng.expovariate(1.0) for _ in range(20000)],
        }
        for label, values in streams.items():
            ledger = depth_ledger(values)
            for quantile in (50.0, 95.0, 99.0):
                exact = nearest_rank(values, quantile)
                estimate = ledger.server_quantile("s", quantile, "depth")
                if exact == 0.0:
                    assert estimate == 0.0, (label, quantile)
                else:
                    assert exact / TAIL_RATIO <= estimate \
                        <= exact * TAIL_RATIO, (label, quantile)
        # The tie-heavy stream exercised both branches above.
        assert nearest_rank(streams["zeros+exp"], 95.0) == 0.0 \
            < nearest_rank(streams["zeros+exp"], 99.0)

    def test_out_of_range_and_lone_values_clamp_to_observed(self):
        tiny = depth_ledger([1e-12, 2e-12, 3e-12])
        huge = depth_ledger([5e9, 6e9, 7e9])
        lone = depth_ledger([42.0])
        for quantile in (0.0, 50.0, 99.0, 100.0):
            assert 1e-12 <= tiny.server_quantile("s", quantile, "depth") \
                <= 3e-12
            assert 5e9 <= huge.server_quantile("s", quantile, "depth") \
                <= 7e9
            assert lone.server_quantile("s", quantile, "depth") == 42.0
        assert tiny.server_quantile("s", 0.0, "depth") == 1e-12
        assert tiny.server_quantile("s", 100.0, "depth") == 3e-12
        assert huge.server_quantile("s", 100.0, "depth") == 7e9

    def test_two_ledgers_tails_merge_to_one_ledgers(self):
        rng = random.Random(9)
        first = [rng.lognormvariate(0.0, 2.0) for _ in range(3000)]
        second = [rng.expovariate(0.01) for _ in range(2000)]
        merged = depth_ledger(first).servers["s"].depth_sketch
        merged.merge(depth_ledger(second).servers["s"].depth_sketch)
        both = depth_ledger(first + second).servers["s"].depth_sketch
        assert merged.counts == both.counts
        assert (merged.count, merged.min, merged.max) \
            == (both.count, both.min, both.max)
        for quantile in (50.0, 95.0, 99.0):
            assert merged.quantile(quantile) == both.quantile(quantile)

    def test_snapshot_keeps_the_sketch_form(self):
        snapshot = depth_ledger([1.0, 2.0, 3.0]).snapshot()["servers"]["s"]
        for tail in ("gap", "depth", "rate_quantiles"):
            assert set(snapshot[tail]) == {"count", "min", "max",
                                           "p50", "p95", "p99"}
        assert snapshot["depth"]["count"] == 3.0
        assert snapshot["depth"]["min"] == 1.0
        assert snapshot["depth"]["max"] == 3.0
        empty = LoadLedger()
        empty.record("s", "a.com", CLASS_QUERY, 0.0)
        assert empty.snapshot()["servers"]["s"]["depth"] == {
            "count": 0.0, "min": None, "max": None,
            "p50": None, "p95": None, "p99": None}


class TestStormDetector:
    def test_opens_on_burst_and_closes_with_hysteresis(self):
        detector = StormDetector(burst_ratio=8.0, exit_ratio=2.0,
                                 min_rate=50.0)
        detector.observe("srv", 0.0, fast_rate=40.0, slow_rate=1.0)
        assert detector.active_count == 0  # below the absolute floor
        detector.observe("srv", 1.0, fast_rate=80.0, slow_rate=1.0)
        assert detector.active_count == 1
        # Still above the exit ratio: the episode stays open.
        detector.observe("srv", 2.0, fast_rate=30.0, slow_rate=1.0)
        assert detector.active_count == 1
        detector.observe("srv", 3.0, fast_rate=1.5, slow_rate=1.0)
        assert detector.active_count == 0
        (episode,) = detector.episodes
        assert episode.start == 1.0 and episode.end == 3.0
        assert episode.peak_rate == 80.0
        assert episode.events == 3

    def test_quiet_server_never_storms(self):
        # Doubling from 0.1/s to 0.4/s clears the ratio but not the
        # absolute floor.
        detector = StormDetector()
        detector.observe("srv", 0.0, fast_rate=0.4, slow_rate=0.05)
        assert detector.active_count == 0 and not detector.episodes

    def test_close_open_flushes_and_traces(self):
        bus = TraceBus()
        detector = StormDetector(trace=bus)
        detector.observe("a", 1.0, fast_rate=500.0, slow_rate=1.0)
        detector.observe("b", 2.0, fast_rate=500.0, slow_rate=1.0)
        detector.close_open(10.0)
        assert detector.active_count == 0
        assert [e.end for e in detector.episodes] == [10.0, 10.0]
        names = [name for _t, name, _f in bus.events]
        assert names == [LOAD_STORM_START, LOAD_STORM_START,
                         LOAD_STORM_END, LOAD_STORM_END]

    def test_rejects_inverted_hysteresis(self):
        with pytest.raises(ValueError):
            StormDetector(burst_ratio=2.0, exit_ratio=4.0)


class TestLoadLedger:
    def test_attributes_by_server_domain_class(self):
        ledger = LoadLedger()
        ledger.record("s1", "a.com", CLASS_QUERY, 0.0)
        ledger.record("s1", "a.com", CLASS_RENEWAL, 1.0)
        ledger.record("s2", "b.com", CLASS_NOTIFY, 1.0)
        assert ledger.total == 3
        assert set(ledger.keys) == {("s1", "a.com", CLASS_QUERY),
                                    ("s1", "a.com", CLASS_RENEWAL),
                                    ("s2", "b.com", CLASS_NOTIFY)}
        assert ledger.servers["s1"].classes == {CLASS_QUERY: 1,
                                                CLASS_RENEWAL: 1}

    def test_domain_cap_folds_overflow(self):
        ledger = LoadLedger(domain_cap=2)
        for i in range(5):
            ledger.record("s", f"d{i}.com", CLASS_QUERY, float(i))
        domains = {domain for _s, domain, _c in ledger.keys}
        assert domains == {"d0.com", "d1.com", OVERFLOW_DOMAIN}

    def test_recorder_facet_binds_server(self):
        ledger = LoadLedger()
        recorder = ledger.recorder("auth:53")
        recorder.record("a.com", CLASS_NOTIFY, 1.0, depth=7.0)
        assert ("auth:53", "a.com", CLASS_NOTIFY) in ledger.keys
        assert ledger.servers["auth:53"].depth_sketch.max == 7.0

    def test_top_ranks_by_count_then_key(self):
        ledger = LoadLedger()
        for _ in range(3):
            ledger.record("s", "hot.com", CLASS_QUERY, 1.0)
        ledger.record("s", "cold.com", CLASS_QUERY, 1.0)
        top = ledger.top(1)
        assert [row["domain"] for row in top] == ["hot.com"]
        assert top[0]["count"] == 3

    def test_tap_feed_maps_protocol_events(self):
        ledger = LoadLedger(default_server="auth")
        for event in pack([
                (0.0, "lease.grant", {"name": "a.com."}),
                (1.0, "lease.renew", {"name": "a.com."}),
                (2.0, "renego.send", {"name": "a.com."}),
                (3.0, "notify.send", {"name": "a.com."}),
                (4.0, "notify.retransmit", {"name": "a.com."}),
                (5.0, "net.deliver", {"src": "a:1", "dst": "b:53"}),
                (6.0, "notify.ack", {"name": "a.com."})]):  # last: ignored
            ledger.on_event(event)
        assert ledger.total == 6
        assert ledger.servers["auth"].classes == {
            CLASS_QUERY: 1, CLASS_RENEWAL: 2, CLASS_NOTIFY: 1,
            CLASS_RETRANSMIT: 1}
        assert ledger.servers["b:53"].classes == {CLASS_DELIVER: 1}

    def test_rates_and_snapshot_shape(self):
        ledger = LoadLedger(window=10.0)
        for i in range(100):
            ledger.record("s", "a.com", CLASS_QUERY, i * 0.01)
        assert ledger.rate() > 0.0
        assert ledger.peak_rate() >= ledger.rate()
        assert ledger.server_quantile("s", 99.0, "rate") > 0.0
        assert ledger.server_quantile("missing", 50.0) is None
        snapshot = ledger.snapshot()
        assert snapshot["total"] == 100
        assert snapshot["servers"]["s"]["count"] == 100
        assert snapshot["storms"] == {"active": 0, "episodes": []}

    def test_server_quantile_answers_any_percent(self):
        ledger = LoadLedger()
        for i in range(1000):
            ledger.record("s", "a.com", CLASS_QUERY, i * 0.5, depth=i + 1.0)
        for quantile, exact in ((90.0, 900.0), (99.9, 999.0)):
            estimate = ledger.server_quantile("s", quantile, "depth")
            assert exact / TAIL_RATIO <= estimate <= exact * TAIL_RATIO
        assert ledger.server_quantile("s", 90.0, "gap") == 0.5
        with pytest.raises(ValueError):
            ledger.server_quantile("s", 100.1)

    def test_out_of_order_arrival_does_not_inflate_the_next_gap(self):
        # A stale timestamp (tap feed over a merged trace, wall clock)
        # must not drag ``last`` backwards: the next in-order arrival
        # is 1 s after the latest one seen, not 51 s.
        ledger = LoadLedger()
        ledger.record("s", "a.com", CLASS_QUERY, 100.0)
        ledger.record("s", "a.com", CLASS_QUERY, 50.0)
        ledger.record("s", "a.com", CLASS_QUERY, 101.0)
        load = ledger.servers["s"]
        assert load.last == 101.0
        assert (load.gap_sketch.count, load.gap_sketch.max) == (1, 1.0)
        ledger.record("s", "a.com", CLASS_QUERY, 60.0)
        assert load.last == 101.0
        assert ledger.keys[("s", "a.com", CLASS_QUERY)].last == 101.0
        assert ledger.top(1)[0]["last"] == 101.0

    def test_storms_mirrored_to_trace(self):
        bus = TraceBus()
        ledger = LoadLedger(window=10.0, baseline=600.0, trace=bus)
        assert ledger.detector.trace is bus
        for _ in range(2000):
            ledger.record("s", "a.com", CLASS_RENEWAL, 100.0)
        assert ledger.detector.active_count == 1
        assert bus.counts()[LOAD_STORM_START] == 1

    def test_rejects_baseline_not_exceeding_window(self):
        with pytest.raises(ValueError):
            LoadLedger(window=10.0, baseline=10.0)

    def test_bind_registry_exposes_gauges(self):
        ledger = LoadLedger()
        registry = Registry()
        ledger.bind_registry(registry)
        ledger.record("s", "a.com", CLASS_QUERY, 0.0, depth=3.0)
        ledger.record("s", "a.com", CLASS_QUERY, 0.5, depth=4.0)
        gauges = registry.snapshot()["gauges"]
        for name in ("load.events", "load.keys", "load.servers",
                     "load.rate", "load.peak_rate", "load.rate_p99",
                     "load.gap_p50", "load.gap_p99", "load.depth_p99",
                     "load.storm.active", "load.storm.episodes"):
            assert name in gauges
        assert gauges["load.events"] == 2.0
        # Two depth samples (3.0, 4.0): the nearest-rank p99 is 4.0 and
        # the estimate shares its bucket.
        assert 4.0 / TAIL_RATIO <= gauges["load.depth_p99"] <= 4.0
        assert gauges["load.storm.active"] == 0.0


class TestMultiTapTraceBus:
    def test_two_taps_see_events_in_install_order(self):
        bus = TraceBus()
        seen = []
        first = lambda record: seen.append(("first", record[1]))  # noqa: E731
        second = lambda record: seen.append(("second", record[1]))  # noqa: E731
        bus.add_tap(first)
        bus.add_tap(second)
        emit_dict(bus, "lease.grant", name="a.com.")
        assert seen == [("first", "lease.grant"), ("second", "lease.grant")]

    def test_single_tap_keeps_pointer_fast_path(self):
        bus = TraceBus()
        fn = lambda record: None  # noqa: E731
        bus.add_tap(fn)
        # One tap: no fan-out wrapper, the emit check stays one pointer.
        assert bus.tap is fn
        bus.remove_tap(fn)
        assert bus.tap is None

    def test_remove_leaves_other_tap_installed(self):
        bus = TraceBus()
        seen = []
        keep = lambda record: seen.append(record[1])  # noqa: E731
        drop = lambda record: seen.append("dropped")  # noqa: E731
        bus.add_tap(keep)
        bus.add_tap(drop)
        bus.remove_tap(drop)
        assert bus.tap is keep
        emit_dict(bus, "lease.renew", name="a.com.")
        assert seen == ["lease.renew"]

    def test_telemetry_and_ledger_coexist(self):
        # The live wiring: an auditing tap and a load ledger side by
        # side on one bus, both fed by a single emit.
        bus = TraceBus()
        audited = []
        ledger = LoadLedger(default_server="auth")
        bus.add_tap(lambda record: audited.append(record[1]))
        bus.add_tap(ledger.on_event)
        emit_dict(bus, "lease.grant", name="a.com.")
        emit_dict(bus, "notify.send", name="a.com.")
        assert audited == ["lease.grant", "notify.send"]
        assert ledger.total == 2

    def test_legacy_direct_assignment_is_adopted(self):
        bus = TraceBus()
        seen = []
        legacy = lambda record: seen.append("legacy")  # noqa: E731
        bus.tap = legacy
        bus.add_tap(lambda record: seen.append("added"))
        emit_dict(bus, "lease.grant", name="a.com.")
        assert seen == ["legacy", "added"]
        bus.remove_tap(legacy)
        emit_dict(bus, "lease.grant", name="a.com.")
        assert seen == ["legacy", "added", "added"]

    def test_duplicate_tap_rejected(self):
        bus = TraceBus()
        fn = lambda record: None  # noqa: E731
        bus.add_tap(fn)
        with pytest.raises(ValueError):
            bus.add_tap(fn)

    def test_remove_unknown_tap_raises(self):
        bus = TraceBus()
        with pytest.raises(ValueError):
            bus.remove_tap(lambda record: None)


def _legacy_histogram_percentile(hist, quantile):
    """The pre-refactor report.py walk, kept verbatim as the oracle."""
    if not 0.0 <= quantile <= 100.0:
        raise ValueError(f"quantile out of range: {quantile}")
    count = hist.count
    buckets = list(zip((*hist.bounds, math.inf), hist.counts))
    low = hist.min if count else None
    high = hist.max if count else None
    if not count:
        return None
    target = quantile / 100.0 * count
    cumulative = 0
    estimate = high
    previous_bound = low if low is not None else 0.0
    for bound, bucket_count in buckets:
        upper = bound
        if math.isinf(upper):
            upper = high if high is not None else previous_bound
        if bucket_count and cumulative + bucket_count >= target:
            lower = min(previous_bound, upper)
            fraction = max(0.0, target - cumulative) / bucket_count
            estimate = lower + (upper - lower) * fraction
            break
        cumulative += bucket_count
        previous_bound = max(previous_bound, bound if not math.isinf(bound)
                             else previous_bound)
    if estimate is None:
        return None
    if low is not None:
        estimate = max(estimate, low)
    if high is not None:
        estimate = min(estimate, high)
    return estimate


class TestSharedBucketQuantile:
    def test_histogram_quantile_matches_legacy_walk(self):
        # Histogram.quantile jumps to its landing bucket; the walk it
        # replaced stays here as the oracle, on few and on many buckets.
        rng = random.Random(7)
        for case in range(100):
            hist = Histogram("h", TAIL_BOUNDS if case % 2
                             else LATENCY_BUCKETS)
            for _ in range(rng.randrange(1, 200)):
                hist.observe(rng.choice((0.0, rng.expovariate(10.0),
                                         rng.lognormvariate(0.0, 9.0))))
            for quantile in (0.0, 10.0, 50.0, 95.0, 99.0, 100.0):
                assert hist.quantile(quantile) == \
                    _legacy_histogram_percentile(hist, quantile)

    def test_empty_histogram_is_none(self):
        hist = Histogram("h", LATENCY_BUCKETS)
        assert hist.quantile(50.0) is None
        assert histogram_percentile(hist, 50.0) is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", LATENCY_BUCKETS).quantile(101.0)

    def test_snapshot_dict_path_matches_live_histogram(self):
        hist = Histogram("h", LATENCY_BUCKETS)
        rng = random.Random(11)
        for _ in range(300):
            hist.observe(rng.expovariate(3.0))
        snapshot = hist.as_dict()
        for quantile in (50.0, 95.0, 99.0):
            assert histogram_percentile(snapshot, quantile) == \
                pytest.approx(histogram_percentile(hist, quantile))
