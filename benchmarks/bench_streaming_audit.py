"""The auditor's memory bound on three established benches.

Replays the traces of the §5.2 Figure 7 testbed, the flash-crowd
redirect, and the UDP-loss ablation through the
:class:`~repro.obs.IncrementalAuditor` one event at a time — as the
live tap and ``repro-obs tail`` deliver them — and holds it to its
memory bound: the peak number of tracked spans (live leases +
unretired changes) must stay under the committed per-scenario caps
below, all far beneath the event counts, on runs that audit clean.

Peak-span caps are ceilings observed with headroom, not targets: the
fig7 run peaks at ~81 spans over ~640 events, the flash crowd at a
handful, the loss ablation at ~the grant count.
"""

from __future__ import annotations

from repro.obs import AuditLimits, IncrementalAuditor
from repro.sim import Testbed, TestbedConfig, run_figure7_scenario

from benchmarks.bench_abl_udp_loss import CHANGES, run_loss_level
from benchmarks.bench_flash_crowd import run_flash_crowd
from benchmarks.conftest import print_table

#: Committed peak tracked-span ceilings per scenario (see module doc).
PEAK_CAPS = {
    "fig7": 120,
    "flash-crowd": 40,
    "udp-loss": 2 * CHANGES + 10,
}


def fig7_trace():
    testbed = Testbed(TestbedConfig(observability=True))
    run_figure7_scenario(testbed)
    limits = AuditLimits(storage_budget=500, renewal_budget=50.0,
                         max_staleness=10.0)
    return list(testbed.observability.trace.events), limits


def flash_crowd_trace():
    obs = run_flash_crowd(True)["observability"]
    return list(obs.trace.events), AuditLimits(max_staleness=10.0)


def udp_loss_trace():
    _module, _network, obs = run_loss_level(0.3)
    return list(obs.trace.events), AuditLimits(storage_budget=CHANGES)


SCENARIOS = {
    "fig7": fig7_trace,
    "flash-crowd": flash_crowd_trace,
    "udp-loss": udp_loss_trace,
}


def stream_scenario(name):
    """Stream one scenario's trace; returns its record."""
    events, limits = SCENARIOS[name]()
    auditor = IncrementalAuditor(limits=limits)
    for event in events:
        auditor.feed(event)
    return {
        "scenario": name,
        "events": len(events),
        "stream": auditor.report(),
        "peak_cap": PEAK_CAPS[name],
    }


def check_record(record):
    """Failure messages for one scenario record (empty = pass)."""
    failures = []
    stream = record["stream"]
    if not stream.ok:
        failures.append(f"{record['scenario']}: {len(stream.violations)} "
                        f"violations on a run that should audit clean")
    if stream.peak_tracked_spans >= record["peak_cap"]:
        failures.append(
            f"{record['scenario']}: peak tracked spans "
            f"{stream.peak_tracked_spans} at or above the committed "
            f"cap {record['peak_cap']}")
    if stream.peak_tracked_spans * 2 >= record["events"]:
        failures.append(
            f"{record['scenario']}: peak tracked spans not meaningfully "
            f"below the event count")
    return failures


def test_streaming_audit_stays_bounded(benchmark):
    records = [benchmark.pedantic(stream_scenario, args=("fig7",),
                                  rounds=1, iterations=1)]
    records.extend(stream_scenario(name)
                   for name in ("flash-crowd", "udp-loss"))

    rows = []
    failures = []
    for record in records:
        failures.extend(check_record(record))
        stream = record["stream"]
        rows.append((record["scenario"], record["events"],
                     len(stream.violations),
                     "yes" if stream.ok else "NO",
                     stream.peak_tracked_spans, record["peak_cap"]))
    print_table("Streaming audit — verdict and memory bounds",
                ("scenario", "events", "violations", "clean",
                 "peak spans", "cap"), rows)
    assert failures == [], failures
