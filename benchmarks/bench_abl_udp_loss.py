"""Ablation: CACHE-UPDATE over lossy UDP.

DNScup ships notifications over UDP with acknowledgement-driven
retransmission (paper §1, §5.2).  This ablation injects packet loss on
the server→cache path and measures delivered consistency: ack ratio,
mean notification latency, and how staleness degrades as loss grows —
graceful fallback to TTL, never worse than weak consistency.

Every loss level runs fully observed (trace + wire capture) and is
audited against the protocol invariants: even at 50 % loss the trace
must stay *coherent* — every send resolves to an ack or timeout, acks
follow sends with exact RTT accounting, and every acknowledged
notification is backed by a delivered datagram in the capture.
"""

import pytest

from repro.core import DynamicLeasePolicy, LeaseTable, NotificationModule
from repro.core.detection import RecordChange
from repro.dnslib import A, Message, Name, Opcode, RRSet, RRType, make_cache_update_ack
from repro.net import Host, LinkProfile, Network, RetryPolicy, Simulator
from repro.obs import AuditLimits, Observability, audit_observability

from benchmarks.conftest import print_table

LOSS_RATES = (0.0, 0.1, 0.3, 0.5)
CHANGES = 120


def run_loss_level(loss_rate):
    simulator = Simulator()
    network = Network(simulator, seed=int(loss_rate * 100) + 1)
    obs = Observability.for_simulator(simulator, capture=True)
    obs.observe_network(network)
    server_host = Host(network, "10.1.0.1")
    cache_host = Host(network, "10.2.0.1")
    network.set_link_profile("10.1.0.1", "10.2.0.1",
                             LinkProfile(loss_rate=loss_rate))
    table = LeaseTable()
    table.trace = obs.trace
    module = NotificationModule(
        server_host.dns_socket(), table,
        retry=RetryPolicy(initial_timeout=0.5, max_attempts=5))
    module.trace = obs.trace
    cache_socket = cache_host.dns_socket()
    cache_socket.on_receive(
        lambda payload, src, dst: cache_socket.send(
            make_cache_update_ack(Message.from_wire(payload)).to_wire(), src))
    origin = Name.from_text("example.com")
    for index in range(CHANGES):
        name = Name.from_text(f"d{index}.example.com")
        table.grant(("10.2.0.1", 53), name, RRType.A, simulator.now, 1e6)
        new = RRSet(name, RRType.A, 60, [A("10.9.9.9")])
        # This harness hand-feeds changes, standing in for the detection
        # module — emit its change.detected (with a live seq) so the
        # trace tells the full story and the auditor can correlate.
        change = RecordChange(origin, name, RRType.A, None, new,
                              simulator.now, seq=index + 1)
        obs.trace.emit("change.detected", change.detected_at, change.seq,
                       origin, name, RRType.A, change.kind)
        module.on_change(change)
        simulator.run()
    return module, network, obs


def test_abl_udp_loss(benchmark):
    module, _, _ = benchmark.pedantic(run_loss_level, args=(0.3,),
                                      rounds=1, iterations=1)

    rows = []
    by_loss = {}
    for loss_rate in LOSS_RATES:
        module, network, obs = run_loss_level(loss_rate)
        # Loss may break delivery; it must never break the protocol's
        # bookkeeping.  The audit (trace + capture, with the storage
        # budget set to the grant count) must come back clean.
        audit = audit_observability(obs, AuditLimits(storage_budget=CHANGES))
        assert audit.ok, (loss_rate, audit.as_dict())
        mean_rtt = module.mean_ack_rtt()
        retransmissions = (network.stats.datagrams_sent
                           - 2 * module.stats.acks_received)
        rows.append((f"{loss_rate:.0%}",
                     f"{module.ack_ratio():7.2%}",
                     f"{mean_rtt * 1000 if mean_rtt else 0:8.1f}",
                     max(0, retransmissions)))
        by_loss[loss_rate] = module
    print_table("Ablation — CACHE-UPDATE under UDP loss "
                f"({CHANGES} changes, 5 attempts, 0.5 s backoff)",
                ("loss", "ack ratio", "mean latency (ms)",
                 "extra datagrams"), rows)

    # Lossless: every notification delivered, one round trip.
    assert by_loss[0.0].ack_ratio() == 1.0
    # Moderate loss: retransmission keeps delivery near-perfect
    # (5 attempts at 30% loss → ~99.8% per-change success).
    assert by_loss[0.3].ack_ratio() > 0.95
    # Heavy loss: degradation is graceful, never catastrophic.
    assert by_loss[0.5].ack_ratio() > 0.85
    # Latency grows with loss (retransmission backoff), monotonically
    # in expectation.
    assert by_loss[0.5].mean_ack_rtt() > by_loss[0.0].mean_ack_rtt()
