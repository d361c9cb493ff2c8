"""Tests for the trace-auditing layer: spans, invariants, reports.

The negative tests are the heart: each takes a *clean* protocol trace,
tampers with it the way a specific bug would (drop an ack, inflate an
rtt, over-grant leases, ...), and asserts the auditor reports exactly
the violation kind that bug produces.
"""

import pytest

from repro.core import DNScupConfig, DynamicLeasePolicy, attach_dnscup
from repro.dnslib import (Message, Name, Rcode, RRType, make_query,
                          make_response)
from repro.net import Host, Network, Simulator
from repro.obs import (
    BUDGET_RENEWAL,
    BUDGET_STORAGE,
    CAUSALITY,
    COMPLETENESS,
    STALENESS,
    TERMINATION,
    VIOLATION_KINDS,
    WIRE,
    AuditLimits,
    Histogram,
    Observability,
    audit_observability,
    audit_trace,
    build_spans,
    domain_timelines,
    histogram_percentile,
    percentiles,
    render_report,
)
from repro.server import AuthoritativeServer, RecursiveResolver, StubResolver
from repro.sim.driver import fixed_lease_fn, simulate_lease_trace
from repro.obs.trace import TraceBus, fields_dict
from repro.traces.workload import QueryEvent
from repro.zone import load_zone
from tests.conftest import pack

NAME = "www.example.com."
CACHE_A = "10.0.0.2:53"
CACHE_B = "10.0.0.3:53"


def clean_trace(tamper=None):
    """A hand-built, invariant-clean run: two lease holders, one change
    fanned out to both (one leg retransmitted once), both acked, settled.

    RTTs and the settled window are computed from the same float
    subtractions the auditor recomputes, so the trace audits at zero
    slack — exactly like a live emitter's trace.  Written as field
    dicts and packed into the bus's positional records; ``tamper``
    (event name, field dict -> field dict) edits them first.
    """
    detected = 10.0
    ack_a, ack_b = 10.2, 10.5
    events = [
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
    ]
    if tamper is not None:
        events = [(t, name, tamper(name, fields))
                  for t, name, fields in events]
    return pack(events)


def capture_for(events):
    """A wire capture consistent with ``events``: one delivered
    CACHE-UPDATE datagram per notify.send / notify.retransmit."""
    records = []
    for event in events:
        t, name, _fields = event
        if name not in ("notify.send", "notify.retransmit"):
            continue
        fields = fields_dict(event)
        records.append({"t": t, "proto": "udp", "src": "10.0.0.1:53",
                        "dst": fields["cache"], "size": 64,
                        "id": fields["id"], "opcode": "CACHE-UPDATE",
                        "qr": False, "fate": "delivered"})
    return records


def drop(events, name, nth=0):
    """``events`` minus the nth occurrence of event ``name``."""
    out, seen = [], 0
    for event in events:
        if event[1] == name:
            if seen == nth:
                seen += 1
                continue
            seen += 1
        out.append(event)
    return out


class TestSpans:
    def test_clean_trace_reconstructs_fully(self):
        spans = build_spans(clean_trace())
        assert spans.orphans == []
        assert spans.untracked == []
        assert len(spans.leases) == 2
        assert all(lease.open for lease in spans.leases)
        [change] = spans.changes
        assert change.seq == 1 and change.settled
        assert change.name == NAME and change.kind == "update"
        assert len(change.legs) == 2
        assert len(change.acked_legs()) == 2
        assert change.window() == 10.5 - 10.0
        assert change.window() == change.settled_window
        leg_b = next(l for l in change.legs if l.cache == CACHE_B)
        assert leg_b.attempts == 2  # the retransmit attached to its leg
        assert leg_b.rtt == 10.5 - 10.0

    def test_lease_lifecycle_renew_expire_supersede(self):
        events = pack([
            (0.0, "lease.grant", {"cache": CACHE_A, "name": NAME,
                                  "rrtype": "A", "length": 10.0}),
            (5.0, "lease.renew", {"cache": CACHE_A, "name": NAME,
                                  "rrtype": "A", "length": 10.0}),
            (15.0, "lease.expire", {"cache": CACHE_A, "name": NAME,
                                    "rrtype": "A"}),
            (20.0, "lease.grant", {"cache": CACHE_A, "name": NAME,
                                   "rrtype": "A", "length": 10.0}),
            # A second grant with no intervening expire: supersedes.
            (25.0, "lease.grant", {"cache": CACHE_A, "name": NAME,
                                   "rrtype": "A", "length": 10.0}),
        ])
        spans = build_spans(events)
        assert spans.orphans == []
        first, second, third = spans.leases
        assert first.end_kind == "expire"
        assert [t for _index, t, _length in first.renewals] == [5.0]
        assert second.end_kind == "superseded"
        assert third.open

    def test_orphans_surface(self):
        events = pack([
            (1.0, "notify.ack", {"seq": 7, "cache": CACHE_A, "rtt": 0.1}),
            (2.0, "lease.expire", {"cache": CACHE_A, "name": NAME,
                                   "rrtype": "A"}),
        ])
        spans = build_spans(events)
        assert len(spans.orphans) == 2
        reasons = [reason for _index, reason in spans.orphans]
        assert "ack without outstanding send" in reasons[0]
        assert "without a live lease" in reasons[1]

    def test_untracked_seq0_legs_match_fifo(self):
        events = pack([
            (0.0, "notify.send", {"seq": 0, "cache": CACHE_A, "name": NAME,
                                  "rrtype": "A", "id": 1}),
            (0.0, "notify.send", {"seq": 0, "cache": CACHE_A, "name": NAME,
                                  "rrtype": "A", "id": 2}),
            (0.3, "notify.ack", {"seq": 0, "cache": CACHE_A, "name": NAME,
                                 "rrtype": "A", "rtt": 0.3}),
        ])
        spans = build_spans(events)
        assert spans.changes == []
        assert len(spans.untracked) == 2
        assert spans.untracked[0].acked          # oldest send acked first
        assert not spans.untracked[1].resolved


class TestAuditCleanRuns:
    def test_clean_trace_zero_violations(self):
        events = clean_trace()
        report = audit_trace(events, capture=capture_for(events),
                            limits=AuditLimits(storage_budget=2,
                                               renewal_budget=10.0,
                                               max_staleness=1.0))
        assert report.ok, report.as_dict()
        # Every family actually examined something.
        assert set(report.checks) == {COMPLETENESS, TERMINATION, CAUSALITY,
                                      STALENESS, BUDGET_STORAGE, WIRE}
        assert report.events_audited == len(events)
        assert report.capture_audited == 3

    def test_live_middleware_run_audits_clean(self, simulator):
        network = Network(simulator, seed=2)
        obs = Observability.for_simulator(simulator, capture=True)
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
        report = audit_observability(obs, AuditLimits(storage_budget=10))
        assert report.ok, report.as_dict()
        span = build_spans(list(obs.trace)).change_for(1)
        assert span is not None and len(span.acked_legs()) == 1

    @pytest.mark.parametrize("reply", [
        lambda update: make_response(update, Rcode.REFUSED),
        lambda update: make_response(update, Rcode.NOTIMP),
        lambda update: make_response(update, Rcode.FORMERR),
        # NOERROR, but not a CACHE-UPDATE acknowledgement.
        lambda update: make_response(make_query("www.example.com", RRType.A)),
    ], ids=["refused", "notimp", "formerr", "query-response"])
    def test_refusing_cache_is_a_failed_leg(self, simulator, reply):
        """A reply that matches the CACHE-UPDATE's ID but does not
        acknowledge it must not close the consistency window (it used to
        be parsed, ignored and counted as an ack).  The audit still
        passes: the leg terminated — as a failure."""
        network = Network(simulator, seed=2)
        obs = Observability.for_simulator(simulator, capture=True)
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
        middleware = attach_dnscup(auth, policy=DynamicLeasePolicy(0.0),
                                   config=DNScupConfig(observability=obs))
        resolver = RecursiveResolver(Host(network, "10.0.0.2"),
                                     [("10.0.0.1", 53)], dnscup_enabled=True)
        client = StubResolver(Host(network, "10.0.0.3"), ("10.0.0.2", 53),
                              cache_seconds=0.0)
        client.lookup("www.example.com", lambda addrs, rc: None)
        simulator.run()
        assert len(middleware.table) == 1

        # The lease holder turns into a cache that refuses the push.
        def refuse(payload, src, dst):
            update = Message.from_wire(payload)
            answer = reply(update)
            answer.id = update.id
            resolver.service_socket.send(answer.to_wire(), src)

        resolver.service_socket.on_receive(refuse)
        zone.replace_address("www.example.com", ["10.0.0.99"])
        simulator.run()

        stats = middleware.notification.stats
        assert (stats.notifications_sent, stats.acks_received,
                stats.failures, stats.in_flight) == (1, 0, 1, 0)
        timeouts = [fields for _, name, fields in obs.trace
                    if name == "notify.timeout"]
        assert [fields[-1] for fields in timeouts] == ["rejected"]
        report = audit_observability(obs, AuditLimits(storage_budget=10))
        assert report.ok, report.as_dict()
        span = build_spans(list(obs.trace)).change_for(1)
        assert span.acked_legs() == [] and len(span.legs) == 1
        assert span.legs[0].timeout_reason == "rejected"
        assert (span.settled_acked, span.settled_failed) == (0, 1)
        assert span.settled_window is None

    def test_audit_refuses_overflowed_trace(self):
        obs = Observability(trace=TraceBus(capacity=1), registry=None)
        obs.trace.emit("net.drop", t=0.0)
        obs.trace.emit("net.drop", t=1.0)
        with pytest.raises(ValueError, match="incomplete"):
            audit_observability(obs)

    def test_driver_reference_oracle_emits_auditable_leases(self):
        name = Name.from_text("www.example.com")
        events = [QueryEvent(time=float(i * 40), client=0, name=name,
                             nameserver=0) for i in range(5)]
        trace = TraceBus()
        traced = simulate_lease_trace(
            events, {}, lambda _n: 1e6, fixed_lease_fn(60.0), 200.0,
            trace=trace)
        plain = simulate_lease_trace(
            events, {}, lambda _n: 1e6, fixed_lease_fn(60.0), 200.0)
        # The trace hook never perturbs the measurement.
        assert traced == plain
        counts = trace.counts()
        # Queries at 0/40/80... with 60 s leases: grant, absorb, expire+
        # grant, ... -> 3 grants, 2 lazily observed expiries.
        assert counts == {"lease.grant": 3, "lease.expire": 2}
        report = audit_trace(list(trace),
                             limits=AuditLimits(storage_budget=1))
        assert report.ok, report.as_dict()


class TestAuditTampers:
    """Each seeded trace defect must produce its own violation kind."""

    def test_dropped_ack_is_termination(self):
        # Drop the *earlier* ack (CACHE_A): its leg never resolves and
        # the settle event's acked count no longer matches the tree.
        events = drop(clean_trace(), "notify.ack", nth=0)
        report = audit_trace(events)
        assert not report.ok
        assert report.kinds() == {TERMINATION}
        messages = " | ".join(v.message for v in report.violations)
        assert "never resolved" in messages
        assert "claims acked=2" in messages

    def test_inflated_rtt_is_causality(self):
        tampered = clean_trace(
            lambda n, f: dict(f, rtt=0.9) if n == "notify.ack" else f)
        report = audit_trace(tampered)
        assert not report.ok
        assert report.kinds() == {CAUSALITY}
        assert all("rtt" in v.message for v in report.violations)

    def test_ack_before_send_is_causality(self):
        # Reorder: move CACHE_A's ack before any send — the positional
        # matcher finds no outstanding leg, evidence of a reordered or
        # forged record.
        events = clean_trace()
        ack = next(e for e in events if e[1] == "notify.ack")
        events.remove(ack)
        events.insert(2, (9.0, ack[1], ack[2]))
        report = audit_trace(events)
        assert not report.ok
        assert CAUSALITY in report.kinds()
        assert any("ack without outstanding send" in v.message
                   for v in report.violations)

    def test_unnotified_holder_is_completeness(self):
        events = drop(clean_trace(), "notify.send", nth=0)  # CACHE_A's
        report = audit_trace(events)
        assert not report.ok
        assert COMPLETENESS in report.kinds()
        assert any(CACHE_A in v.message and v.kind == COMPLETENESS
                   for v in report.violations)

    @pytest.mark.parametrize("detected, owed", [
        (9.0, True),    # inside the granted term
        (12.0, True),   # past it, but the renewal restarted the term
        (15.0, False),  # the renewed term ends at exactly 15: strict
        (16.0, False),
    ])
    def test_holder_is_owed_a_notification_while_its_term_runs(
            self, detected, owed):
        lease = {"cache": CACHE_A, "name": NAME, "rrtype": "A",
                 "length": 10.0}
        events = pack([
            (0.0, "lease.grant", lease),
            (5.0, "lease.renew", lease),
            (detected, "change.detected", {"seq": 1, "name": NAME,
                                           "rrtype": "A"}),
            (detected, "change.settled", {"seq": 1, "acked": 0,
                                          "failed": 0}),
        ])
        report = audit_trace(events)
        assert report.kinds() == ({COMPLETENESS} if owed else set())
        # An expiry recorded before the detect ends the obligation too.
        events[2:2] = pack([(detected, "lease.expire", lease)])
        assert audit_trace(events).ok

    def test_overgranted_leases_is_budget_storage(self):
        report = audit_trace(clean_trace(),
                             limits=AuditLimits(storage_budget=1))
        assert not report.ok
        assert report.kinds() == {BUDGET_STORAGE}

    def test_renewal_flood_is_budget_renewal(self):
        events = [(0.0, "lease.grant", {"cache": CACHE_A, "name": NAME,
                                        "rrtype": "A", "length": 600.0})]
        events += [(0.1 * i, "lease.renew",
                    {"cache": CACHE_A, "name": NAME, "rrtype": "A",
                     "length": 600.0}) for i in range(1, 11)]
        report = audit_trace(pack(events), limits=AuditLimits(
            renewal_budget=2.0, renewal_window=1.0))
        assert not report.ok
        assert report.kinds() == {BUDGET_RENEWAL}

    def test_tampered_settled_window_is_staleness(self):
        events = clean_trace(lambda n, f: dict(f, window=0.123)
                             if n == "change.settled" else f)
        report = audit_trace(events)
        assert not report.ok
        assert report.kinds() == {STALENESS}

    def test_stale_holder_beyond_bound_is_staleness(self):
        report = audit_trace(clean_trace(),
                             limits=AuditLimits(max_staleness=0.3))
        assert not report.ok
        assert report.kinds() == {STALENESS}
        # Only CACHE_B (acked 0.5 s after detection) breaches 0.3 s.
        assert all(CACHE_B in v.message for v in report.violations)

    def test_forged_capture_id_is_wire(self):
        events = clean_trace()
        capture = capture_for(events)
        for record in capture:
            if record["dst"] == CACHE_A:
                record["id"] = 999  # trace says 101 went out
        report = audit_trace(events, capture=capture)
        assert not report.ok
        assert report.kinds() == {WIRE}
        assert any("no captured datagram" in v.message
                   for v in report.violations)

    def test_ack_without_delivery_is_wire(self):
        events = clean_trace()
        capture = capture_for(events)
        for record in capture:
            if record["dst"] == CACHE_B:
                record["fate"] = "dropped"
        report = audit_trace(events, capture=capture)
        assert not report.ok
        assert report.kinds() == {WIRE}
        assert any("no captured datagram was" in v.message
                   for v in report.violations)

    def test_all_kinds_are_contract_kinds(self):
        # Every kind the tampers above produced is in the contract set.
        assert {TERMINATION, CAUSALITY, COMPLETENESS, BUDGET_STORAGE,
                BUDGET_RENEWAL, STALENESS, WIRE} <= VIOLATION_KINDS


class TestReport:
    def test_percentile_interpolation(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 1.6, 1.9):
            hist.observe(value)
        assert histogram_percentile(hist, 0.0) == 0.5       # clamps to min
        assert histogram_percentile(hist, 50.0) == pytest.approx(4 / 3)
        assert histogram_percentile(hist, 100.0) == 1.9     # clamps to max
        assert histogram_percentile(Histogram("e"), 50.0) is None

    def test_percentile_overflow_bucket_uses_observed_max(self):
        hist = Histogram("h", buckets=(1.0,))
        for value in (5.0, 7.0):
            hist.observe(value)  # both beyond the last bound
        p99 = histogram_percentile(hist, 99.0)
        assert p99 is not None and p99 <= 7.0

    def test_percentiles_accepts_snapshot_dict(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5):
            hist.observe(value)
        live = percentiles(hist)
        from_snapshot = percentiles(hist.as_dict())
        assert live == from_snapshot
        assert set(live) == {"p50", "p95", "p99"}

    def test_domain_timelines_group_by_name(self):
        spans = build_spans(clean_trace())
        timelines = domain_timelines(spans)
        assert list(timelines) == [NAME]
        assert timelines[NAME][0].seq == 1

    def test_render_report_clean_run(self):
        events = clean_trace()
        text = render_report(events, capture=capture_for(events),
                             title="Audit quickstart")
        assert text.startswith("# Audit quickstart")
        assert "**0 violations**" in text
        assert NAME in text
        assert "p95" in text

    def test_render_report_shows_violations(self):
        text = render_report(drop(clean_trace(), "notify.ack", nth=0))
        assert "termination" in text
        assert "never resolved" in text
