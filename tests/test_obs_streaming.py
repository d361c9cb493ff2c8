"""Streaming audit ≡ batch audit, at every prefix, under tampering.

The :class:`repro.obs.IncrementalAuditor` contract: feeding any
*prefix* of a trace and asking for the report yields exactly the
violation multiset and check counts that :func:`repro.obs.audit_trace`
computes over the same prefix — bit for bit, violation message for
violation message — while holding only the *open* spans in memory.
The Hypothesis property drives that equivalence through randomized
tamperings (drops, duplicates, time shifts, rtt edits, field removals,
swaps) of a clean protocol trace under tight budget/staleness limits,
so both the clean paths and every violation path are exercised at
every prefix length.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import (
    LATENCY_BUCKETS,
    AuditLimits,
    Histogram,
    IncrementalAuditor,
    audit_trace,
    consistency_windows,
)
from repro.sim import Testbed, TestbedConfig, run_figure7_scenario

NAME = "www.example.com."
CACHE_A = "10.0.0.2:53"
CACHE_B = "10.0.0.3:53"

#: Tight limits so even light tampering trips budget/staleness checks.
TIGHT = AuditLimits(storage_budget=1, renewal_budget=0.5,
                    renewal_window=10.0, max_staleness=0.05)

#: The fig7 bench's audit limits (matches benchmarks/bench_fig7*).
FIG7_LIMITS = AuditLimits(storage_budget=500, renewal_budget=50.0,
                          max_staleness=10.0)


def clean_trace():
    """Two lease holders, one change fanned out, both acked, settled —
    the same invariant-clean skeleton ``test_obs_audit`` uses."""
    detected = 10.0
    ack_a, ack_b = 10.2, 10.5
    return [
        (0.0, "lease.grant", {"cache": CACHE_A, "name": NAME,
                              "rrtype": "A", "length": 600.0}),
        (1.0, "lease.grant", {"cache": CACHE_B, "name": NAME,
                              "rrtype": "A", "length": 600.0}),
        (detected, "change.detected", {"seq": 1, "zone": "example.com.",
                                       "name": NAME, "rrtype": "A",
                                       "kind": "update"}),
        (detected, "notify.send", {"seq": 1, "cache": CACHE_A, "name": NAME,
                                   "rrtype": "A", "id": 101}),
        (detected, "notify.send", {"seq": 1, "cache": CACHE_B, "name": NAME,
                                   "rrtype": "A", "id": 102}),
        (10.1, "notify.retransmit", {"seq": 1, "cache": CACHE_B,
                                     "name": NAME, "rrtype": "A",
                                     "id": 102, "attempt": 2}),
        (ack_a, "notify.ack", {"seq": 1, "cache": CACHE_A, "name": NAME,
                               "rrtype": "A", "rtt": ack_a - detected}),
        (ack_b, "notify.ack", {"seq": 1, "cache": CACHE_B, "name": NAME,
                               "rrtype": "A", "rtt": ack_b - detected}),
        (ack_b, "change.settled", {"seq": 1, "window": ack_b - detected,
                                   "acked": 2, "failed": 0}),
        (20.0, "lease.expire", {"cache": CACHE_A, "name": NAME,
                                "rrtype": "A"}),
        (20.0, "lease.expire", {"cache": CACHE_B, "name": NAME,
                                "rrtype": "A"}),
    ]


def violation_key(violation):
    # repr() keeps None/int/float seq and t values mutually sortable
    # without loosening equality.
    return (violation.kind, repr(violation.seq), repr(violation.t),
            tuple(violation.events), violation.message)


def assert_equivalent_at_every_prefix(events, limits):
    """The core oracle: stream report == batch report on every prefix."""
    auditor = IncrementalAuditor(limits=limits)
    for i, event in enumerate(events, start=1):
        auditor.feed(event)
        stream = auditor.report()
        batch = audit_trace(events[:i], limits=limits)
        assert sorted(violation_key(v) for v in stream.violations) \
            == sorted(violation_key(v) for v in batch.violations), \
            f"violation multiset diverged at prefix {i}"
        assert stream.checks == batch.checks, \
            f"check counts diverged at prefix {i}"
        assert stream.ok == batch.ok
        assert stream.events_audited == i


def apply_ops(events, ops):
    """Deterministically tamper ``events`` with a list of edit ops."""
    events = [(t, name, dict(fields)) for t, name, fields in events]
    for kind, index, amount in ops:
        if not events:
            break
        i = index % len(events)
        t, name, fields = events[i]
        if kind == "drop":
            del events[i]
        elif kind == "dup":
            events.insert(i, (t, name, dict(fields)))
        elif kind == "shift":
            events[i] = (t - amount, name, fields)
        elif kind == "rtt":
            if "rtt" in fields:
                fields["rtt"] = float(fields["rtt"]) + amount
        elif kind == "strip":
            keys = sorted(fields)
            if keys:
                fields.pop(keys[index % len(keys)])
        elif kind == "swap":
            j = (i + 1) % len(events)
            events[i], events[j] = events[j], events[i]
    return events


OPS = st.lists(
    st.tuples(
        st.sampled_from(["drop", "dup", "shift", "rtt", "strip", "swap"]),
        st.integers(min_value=0, max_value=63),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False,
                  allow_infinity=False)),
    max_size=6)


class TestPropertyEquivalence:
    # The wrap-around swap moves change.settled to the very front: the
    # streaming auditor retired the (empty) span there and then, while
    # the batch auditor kept attaching the later detect/sends to it.
    @example(ops=[("swap", 52, 0.0), ("drop", 10, 0.0), ("swap", 9, 0.0)])
    @given(ops=OPS)
    @settings(max_examples=80, deadline=None)
    def test_tampered_traces_match_batch_at_every_prefix(self, ops):
        events = apply_ops(clean_trace(), ops)
        assert_equivalent_at_every_prefix(events, TIGHT)

    @given(ops=OPS)
    @settings(max_examples=40, deadline=None)
    def test_tampered_traces_match_without_limits(self, ops):
        events = apply_ops(clean_trace(), ops)
        assert_equivalent_at_every_prefix(events, AuditLimits())

    def test_events_after_a_closed_span_are_orphans_in_both(self):
        """Settled with every leg resolved, a seq is closed: a later
        detect or send naming it joins no span, in either auditor."""
        events = clean_trace()
        settled = events.pop(8)
        assert settled[1] == "change.settled"
        events.insert(0, settled)
        assert_equivalent_at_every_prefix(events, TIGHT)
        report = audit_trace(events, limits=TIGHT)
        reasons = [v.message for v in report.violations
                   if v.message.startswith("orphan event")]
        assert sum("after change settled seq=1" in r for r in reasons) == 3
        assert sum("without outstanding send" in r for r in reasons) == 3
        span = report.spans.change_for(1)
        assert span.legs == [] and span.detected_index is None

    def test_clean_trace_equivalent_and_ok(self):
        events = clean_trace()
        assert_equivalent_at_every_prefix(events, AuditLimits())
        auditor = IncrementalAuditor()
        auditor.feed_many(events)
        assert auditor.report().ok


class TestFailFast:
    def test_feed_returns_permanent_violations_as_they_land(self):
        events = clean_trace()
        # Move CACHE_A's ack before its send: a causality violation
        # that is permanent the moment the ack event is read.
        t, name, fields = events[6]
        assert name == "notify.ack" and fields["cache"] == CACHE_A
        events[6] = (5.0, name, fields)
        events.sort(key=lambda ev: ev[0])
        auditor = IncrementalAuditor()
        flagged_at = None
        for i, event in enumerate(events):
            fresh = auditor.feed(event)
            if fresh and flagged_at is None:
                flagged_at = i
                assert any(v.kind == "causality" for v in fresh)
        assert flagged_at is not None
        assert events[flagged_at][1] == "notify.ack"

    def test_pending_violations_stay_out_of_feed(self):
        # Without the settled event the change never retires: its
        # unresolved-leg state is a *pending* violation — visible in
        # report(), never returned by feed().
        events = [ev for ev in clean_trace()
                  if ev[1] not in ("change.settled", "notify.ack")]
        auditor = IncrementalAuditor()
        assert auditor.feed_many(events) == []
        report = auditor.report()
        assert not report.ok
        assert any(v.kind == "termination" for v in report.violations)


def fan_out_trace(legs, seed=5):
    """One change sent to ``legs`` holders, each leg retransmitted once
    and acked, resolutions in a seeded shuffle of the send order (acks
    race each other on a real network), then settled."""
    rng = random.Random(seed)
    caches = [f"10.{n >> 16}.{(n >> 8) & 255}.{n & 255}:53"
              for n in range(legs)]
    leg = {"seq": 1, "name": NAME, "rrtype": "A"}
    events = [(10.0, "change.detected", {"seq": 1, "zone": "example.com.",
                                         "name": NAME, "rrtype": "A",
                                         "kind": "update"})]
    events += [(10.0, "notify.send", {**leg, "cache": cache, "id": 7})
               for cache in caches]
    rng.shuffle(caches)
    events += [(10.015, "notify.retransmit",
                {**leg, "cache": cache, "id": 7, "attempt": 2})
               for cache in caches]
    rng.shuffle(caches)
    events += [(10.025, "notify.ack", {**leg, "cache": cache,
                                       "rtt": 10.025 - 10.0})
               for cache in caches]
    events.append((10.025, "change.settled",
                   {"seq": 1, "window": 10.025 - 10.0, "acked": legs,
                    "failed": 0}))
    return events


class TestLegMatchingIsLinear:
    def test_wide_fan_out_streams_in_batch_order_of_time(self):
        """Matching an ack to its leg used to scan the change's whole
        unresolved list (and ``list.remove`` compared dataclasses field
        by field): 15-23x the batch audit at 5 000 legs, growing with
        the fan-out.  Indexed, it is ~1-2x at any width; 8x is headroom
        for a noisy host, not a target."""
        events = fan_out_trace(20_000)

        def best_of(runs, fn):
            best, result = math.inf, None
            for _ in range(runs):
                started = perf_counter()
                result = fn()
                best = min(best, perf_counter() - started)
            return best, result

        def streamed():
            auditor = IncrementalAuditor()
            auditor.feed_many(events)
            return auditor.report()

        batch_s, batch = best_of(3, lambda: audit_trace(events))
        stream_s, stream = best_of(3, streamed)
        assert [violation_key(v) for v in stream.violations] \
            == [violation_key(v) for v in batch.violations] == []
        assert stream.checks == batch.checks
        assert stream.events_audited == batch.events_audited == len(events)
        assert stream.tracked_spans == 0
        assert stream_s <= 8.0 * batch_s, (stream_s, batch_s)

    def test_untracked_legs_match_by_cache_name_and_type(self):
        # seq-0 legs share no change span: the same cache may hold one
        # open leg per (name, rrtype), matched oldest first.
        send = {"cache": CACHE_A, "rrtype": "A", "id": 1}
        events = [
            (1.0, "notify.send", {**send, "name": NAME}),
            (1.0, "notify.send", {**send, "name": "other.example.com."}),
            (1.5, "notify.send", {**send, "name": NAME}),
            (2.0, "notify.ack", {"cache": CACHE_A, "name": NAME,
                                 "rrtype": "A", "rtt": 1.0}),
            (2.5, "notify.timeout", {"cache": CACHE_A, "rrtype": "A",
                                     "name": "other.example.com."}),
            (3.0, "notify.ack", {"cache": CACHE_B, "name": NAME,
                                 "rrtype": "A", "rtt": 1.0}),
        ]
        assert_equivalent_at_every_prefix(events, AuditLimits())
        auditor = IncrementalAuditor()
        auditor.feed_many(events)
        (pending,) = auditor.pending_violations()
        assert pending.events == (2,)
        assert auditor.tracked_spans == 1


@pytest.fixture(scope="module")
def fig7_events():
    testbed = Testbed(TestbedConfig(observability=True))
    run_figure7_scenario(testbed)
    return list(testbed.observability.trace.events)


class TestFig7Stream:
    def test_full_trace_bit_for_bit(self, fig7_events):
        auditor = IncrementalAuditor(limits=FIG7_LIMITS)
        auditor.feed_many(fig7_events)
        stream = auditor.report()
        batch = audit_trace(fig7_events, limits=FIG7_LIMITS)
        assert [violation_key(v) for v in stream.violations] \
            == [violation_key(v) for v in batch.violations]
        assert stream.checks == batch.checks
        assert stream.ok and batch.ok

    def test_prefixes_match_on_stride(self, fig7_events):
        auditor = IncrementalAuditor(limits=FIG7_LIMITS)
        for i, event in enumerate(fig7_events, start=1):
            auditor.feed(event)
            if i % 37 and i != len(fig7_events):
                continue
            stream = auditor.report()
            batch = audit_trace(fig7_events[:i], limits=FIG7_LIMITS)
            assert sorted(violation_key(v) for v in stream.violations) \
                == sorted(violation_key(v) for v in batch.violations), i
            assert stream.checks == batch.checks, i

    def test_memory_stays_bounded(self, fig7_events):
        auditor = IncrementalAuditor(limits=FIG7_LIMITS)
        auditor.feed_many(fig7_events)
        # Tracked state is live leases + unretired changes, never the
        # whole event stream: the fig7 run holds ~80 leases and retires
        # every change, so the peak sits far below the event count.
        assert auditor.events_audited == len(fig7_events)
        assert auditor.peak_tracked_spans < 100
        assert auditor.peak_tracked_spans < len(fig7_events) // 4
        assert auditor.tracked_spans <= auditor.peak_tracked_spans

    def test_window_hist_matches_batch_windows(self, fig7_events):
        window_hist = Histogram("notify.consistency_window",
                                LATENCY_BUCKETS)
        auditor = IncrementalAuditor(limits=FIG7_LIMITS,
                                     window_hist=window_hist)
        auditor.feed_many(fig7_events)
        batch = Histogram("notify.consistency_window", LATENCY_BUCKETS)
        for _seq, window in consistency_windows(fig7_events):
            batch.observe(window)
        assert window_hist.counts == batch.counts
        assert window_hist.count == batch.count
        assert window_hist.min == batch.min
        assert window_hist.max == batch.max
        assert math.isclose(window_hist.sum, batch.sum, rel_tol=1e-12)
