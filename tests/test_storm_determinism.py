"""Determinism pin for the transport and scheduler hot path.

A 500-holder renewal storm (the shape of ``perfbench/storm.py``: grants
spread over a window, one synchronized renewal, one mapping change
fanned out as CACHE-UPDATEs with a forced retransmission per leg) is
built from the public surfaces and every counter it leaves behind is
compared with literals recorded at the commit *before* the PR 16
transport rewrite.  The lossy/duplicating variant pins the order of the
RNG draws in ``Network.send`` as well: one draw out of place moves
every later latency, and with it ``simulator.now``.

The observed twin arms the whole plane on the clean storm (trace bus,
load ledger, batch audit) and pins everything the plane derives that
the PR 17 tail-estimator swap must not move — emitted events, storm
episodes, per-server tallies and the tails' count/min/max — against
literals recorded at the commit before it; only the tails' p50/p95/p99
*estimates* are free to change (``tests/test_obs_load.py`` bounds them).
"""

import dataclasses
import random
import types

import pytest

from repro.core import DNScupConfig, DynamicLeasePolicy, attach_dnscup
from repro.dnslib import Message, RRType, make_cache_update_ack
from repro.net import (Host, LatencyModel, LinkProfile, Network,
                       RetryPolicy, Simulator)
from repro.obs import Observability, audit_observability
from repro.server import AuthoritativeServer
from repro.zone import load_zone

HOLDERS = 500
SEED = 7
LEASED_NAME = "www.example.com"
NEW_ADDRESS = ["10.0.9.9"]
ZONE_TEXT = """\
$ORIGIN example.com.
$TTL 3600
@    IN SOA ns1 admin 1 7200 900 604800 300
@    IN NS  ns1
ns1  IN A   10.1.0.1
www  IN A   10.0.0.10
"""


def build_storm(holders=HOLDERS, loss_rate=0.0, duplicate_rate=0.0,
                observed=False, max_attempts=4):
    """Grant and synchronize; returns the world at the instant of the
    change (``tests/test_inflight_census.py`` looks inside the fan-out
    from here)."""
    rng = random.Random(SEED)
    simulator = Simulator()
    obs = None
    if observed:
        obs = Observability.for_simulator(simulator)
        obs.enable_load()
    profile = LinkProfile(latency=LatencyModel(0.010, 0.004),
                          loss_rate=loss_rate,
                          duplicate_rate=duplicate_rate)
    network = Network(simulator, seed=SEED, default_profile=profile)
    if obs is not None:
        obs.observe_network(network)
    zone = load_zone(ZONE_TEXT)
    server = AuthoritativeServer(Host(network, "10.1.0.1"), [zone])
    middleware = attach_dnscup(
        server, policy=DynamicLeasePolicy(0.0),
        config=DNScupConfig(
            observability=obs,
            notify_retry=RetryPolicy(initial_timeout=0.015,
                                     max_attempts=max_attempts),
            lease_capacity=2 * holders))
    endpoints = [(f"172.{16 + (n >> 16)}.{(n >> 8) & 255}.{n & 255}", 53)
                 for n in rng.sample(range(1 << 20), holders)]
    renew_order = list(endpoints)
    rng.shuffle(renew_order)

    def acknowledge(payload, src, dst):
        if payload[2] & 0x80:
            return
        ack = make_cache_update_ack(Message.from_wire(payload))
        network.send(ack.to_wire(), dst, src)

    for endpoint in endpoints:
        network.bind(endpoint, acknowledge)
    table = middleware.table
    for start in range(0, holders, 5):
        simulator.run_until(300.0 * start / holders)
        for endpoint in endpoints[start:start + 5]:
            table.grant(endpoint, LEASED_NAME, RRType.A, now=simulator.now,
                        length=3600.0)
    simulator.run_until(600.0)
    for endpoint in renew_order:
        table.grant(endpoint, LEASED_NAME, RRType.A, now=simulator.now,
                    length=3600.0)
    simulator.run_until(660.0)
    return types.SimpleNamespace(
        simulator=simulator, network=network, profile=profile, zone=zone,
        middleware=middleware, obs=obs)


def run_storm(loss_rate=0.0, duplicate_rate=0.0, observed=False):
    """Grant, synchronize, change, settle; returns every counter (plus
    what the plane saw under ``"observed"`` when it is armed)."""
    storm = build_storm(HOLDERS, loss_rate, duplicate_rate, observed)
    simulator, network, profile = storm.simulator, storm.network, storm.profile
    middleware, table, obs = (storm.middleware, storm.middleware.table,
                              storm.obs)
    storm.zone.replace_address(LEASED_NAME, NEW_ADDRESS)
    simulator.run()
    counters = {
        "now": simulator.now,
        "events": simulator.events_processed,
        "pending": simulator.pending,
        "network": dataclasses.asdict(network.stats),
        "link": dataclasses.asdict(profile.stats),
        "notification": dataclasses.asdict(middleware.notification.stats),
        "lease": dataclasses.asdict(table.stats),
        # Sums every acknowledged leg's two latency draws.
        "mean_ack_rtt": middleware.notification.mean_ack_rtt(),
    }
    if obs is not None:
        counters["observed"] = plane_facts(obs, simulator.now)
    return counters


def plane_facts(obs, now):
    """Everything the plane derived, minus the tails' quantile estimates."""
    ledger = obs.load
    ledger.detector.close_open(now)
    report = audit_observability(obs)
    snapshot = ledger.snapshot()
    servers = {}
    for server, load in snapshot["servers"].items():
        servers[server] = {
            "count": load["count"], "classes": load["classes"],
            "peak_rate": load["peak_rate"],
            "tails": {tail: {key: load[tail][key]
                             for key in ("count", "min", "max")}
                      for tail in ("gap", "depth", "rate_quantiles")},
        }
    return {
        "emitted": obs.trace.emitted,
        "dropped": obs.trace.dropped,
        "counts": obs.trace.counts(),
        "episodes": snapshot["storms"]["episodes"],
        "total": ledger.total,
        "servers": servers,
        "checks": sum(report.checks.values()),
        "violations": len(report.violations),
    }


def expected(now, events, network, link, notification, mean_ack_rtt):
    """The recorded counters of one run, spelled out in full."""
    return {
        "now": now, "events": events, "pending": 0,
        "network": dict(max_datagram=51, stream_messages=0, stream_bytes=0,
                        **network),
        "link": link,
        "notification": dict(changes_processed=1, notifications_sent=500,
                             caches_notified=500, in_flight=0,
                             wire_encodes=1, no_holders=0,
                             ack_tsig_failures=0, **notification),
        "lease": dict(grants=500, renewals=500, expirations=0,
                      revocations=0, peak_active=500),
        "mean_ack_rtt": mean_ack_rtt,
    }


CLEAN = expected(
    now=660.042794838337, events=2500,
    network=dict(datagrams_sent=2000, datagrams_delivered=2000,
                 datagrams_lost=0, datagrams_duplicated=0,
                 datagrams_unreachable=0, bytes_sent=88000,
                 bytes_delivered=88000),
    link=dict(delivered=2000, dropped=0, duplicated=0, unreachable=0),
    notification=dict(acks_received=500, failures=0, retransmissions=500),
    mean_ack_rtt=0.023853928638361138)

LOSSY = expected(
    now=660.2249999999999, events=2340,
    network=dict(datagrams_sent=2023, datagrams_delivered=1750,
                 datagrams_lost=473, datagrams_duplicated=200,
                 datagrams_unreachable=0, bytes_sent=89999,
                 bytes_delivered=77924),
    link=dict(delivered=1750, dropped=473, duplicated=200, unreachable=0),
    notification=dict(acks_received=492, failures=8, retransmissions=582),
    mean_ack_rtt=0.03388236443330022)


@pytest.mark.parametrize("kwargs, want", [
    pytest.param({}, CLEAN, id="clean"),
    pytest.param({"loss_rate": 0.2, "duplicate_rate": 0.1}, LOSSY,
                 id="loss0.2-dup0.1"),
])
def test_storm_counters_match_parent_commit(kwargs, want):
    assert run_storm(**kwargs) == want


SERVER = "10.1.0.1:53"

#: What the armed plane derived from the clean storm at the parent of
#: PR 17 (P² tails): everything here is estimator-independent.
OBSERVED = {
    "emitted": 4506,
    "dropped": 0,
    "counts": {"change.detected": 1, "change.settled": 1,
               "lease.grant": 500, "lease.renew": 500,
               "load.storm.end": 2, "load.storm.start": 2,
               "net.deliver": 2000, "notify.ack": 500,
               "notify.retransmit": 500, "notify.send": 500},
    "episodes": [
        {"server": SERVER, "start": 600.0, "end": 660.0,
         "baseline": 1.2300918128077831, "peak_rate": 50.000000000000135,
         "events": 2},
        {"server": SERVER, "start": 660.0, "end": 660.042794838337,
         "baseline": 1.9446997665148342, "peak_rate": 100.0488080636658,
         "events": 502}],
    "total": 2000,
    "servers": {SERVER: {
        "count": 2000,
        "classes": {"notify": 500, "query": 500, "renewal": 500,
                    "retransmit": 500},
        "peak_rate": 100.0488080636658,
        "tails": {
            "gap": {"count": 1999.0, "min": 0.0, "max": 303.0},
            "depth": {"count": 1000.0, "min": 1, "max": 500},
            "rate_quantiles": {"count": 2000.0, "min": 0.1,
                               "max": 100.0488080636658}},
    }},
    "checks": 1501,
    "violations": 0,
}


def test_observed_storm_matches_parent_commit():
    got = run_storm(observed=True)
    assert got.pop("observed") == OBSERVED
    # The plane only observes: the protocol counters are the bare run's.
    assert got == CLEAN
