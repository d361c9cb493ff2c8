"""``repro-live``: run the Figure 7 testbed over real loopback sockets.

Builds a :class:`~repro.sim.livetestbed.LiveTestbed` — the §5.2
topology on a :class:`~repro.net.clock.LiveClock` and real UDP/TCP
sockets on ``127.0.0.1`` — drives the same validation scenario as the
simulated fig7 bench (:func:`~repro.sim.testbed.run_figure7_scenario`),
audits the wall-clock trace against the full protocol invariant set,
and exits 1 on any violation.  ``--export DIR`` writes the trace, wire
capture, and metrics snapshot so the run can be re-audited offline with
``repro-obs``::

    repro-live --export out/
    repro-obs --strict audit out/live_trace.jsonl --capture out/live_capture.jsonl

This is the command the CI ``live-transport`` job gates on: a push that
breaks the live transport (or any protocol invariant over it) fails
here, not in production.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from ..net.telemetry import parse_exposition
from ..obs import audit_trace
from ..sim import TestbedConfig, run_figure7_scenario
from ..sim.livetestbed import LiveTestbed, loopback_available


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for this tool."""
    parser = argparse.ArgumentParser(
        prog="repro-live",
        description="Run the Figure 7 testbed over real asyncio loopback "
                    "sockets and audit the run.")
    parser.add_argument("--updates", type=int, default=5,
                        help="dynamic updates to apply (default 5)")
    parser.add_argument("--zones", type=int, default=40,
                        help="zones to build (default 40, the paper's count)")
    parser.add_argument("--export", metavar="DIR",
                        help="write live_trace.jsonl, live_capture.jsonl and "
                             "live_metrics.json under DIR")
    parser.add_argument("--json", action="store_true",
                        help="print the run summary as JSON")
    parser.add_argument("--telemetry", action="store_true",
                        help="stream the run: incremental audit on the "
                             "trace tap, periodic registry snapshots, and "
                             "a live /metrics endpoint scraped mid-run; "
                             "fails fast on the first violation")
    parser.add_argument("--telemetry-interval", type=float, default=0.05,
                        metavar="SECONDS",
                        help="snapshot tick interval (default 0.05)")
    parser.add_argument("--sanitize", action="store_true",
                        help="arm the runtime concurrency sanitizer "
                             "(blocking slices, never-awaited coroutines, "
                             "wrong-context mutations, task leaks) and "
                             "fail the run on any report")
    parser.add_argument("--skip-unavailable", action="store_true",
                        help="exit 0 (not 1) when loopback UDP is "
                             "unavailable on this platform")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if not loopback_available():
        print("repro-live: loopback UDP unavailable on this platform",
              file=sys.stderr)
        return 0 if args.skip_unavailable else 1
    testbed = LiveTestbed(TestbedConfig(observability=True,
                                        zone_count=args.zones),
                          sanitize=args.sanitize)
    telemetry_ok = True
    sanitize_ok = True
    try:
        scrape: dict = {}
        if args.telemetry:
            plane = testbed.enable_telemetry(
                interval=args.telemetry_interval)
            _arm_midrun_scrape(testbed, plane, scrape)
        summary = dict(run_figure7_scenario(testbed, updates=args.updates))
        report = testbed.audit()
        obs = testbed.observability
        summary["trace_events"] = obs.trace.emitted
        summary["captured_datagrams"] = len(obs.capture)
        summary["audit_ok"] = report.ok
        summary["violations"] = [v.as_dict() for v in report.violations]
        if args.telemetry:
            summary["telemetry"] = _finish_telemetry(testbed, plane, scrape)
            telemetry_ok = bool(summary["telemetry"]["ok"])
        if args.sanitize:
            sanitizer = testbed.sanitizer
            reports = (sanitizer.report()
                       if sanitizer is not None else [])
            sanitize_ok = not reports
            summary["sanitizer"] = {
                "ok": sanitize_ok,
                "reports": [f.as_dict() for f in reports],
            }
        if args.export:
            os.makedirs(args.export, exist_ok=True)
            obs.trace.export_jsonl(
                os.path.join(args.export, "live_trace.jsonl"))
            obs.capture.export_jsonl(
                os.path.join(args.export, "live_capture.jsonl"))
            obs.registry.export_json(
                os.path.join(args.export, "live_metrics.json"))
    finally:
        testbed.close()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_summary(summary)
    return 0 if report.ok and telemetry_ok and sanitize_ok else 1


def _arm_midrun_scrape(testbed: LiveTestbed, plane, scrape: dict) -> None:
    """Schedule one real HTTP scrape of the endpoint while traffic runs.

    A daemon timer (never holds off quiescence) launches the scrape as
    a loop task; if the run finishes before the timer fires,
    :func:`_finish_telemetry` falls back to a post-run scrape.
    """
    async def _do() -> None:
        try:
            scrape["body"] = await plane.ascrape()
            scrape["midrun"] = True
        except Exception as exc:
            scrape["error"] = exc

    def _launch() -> None:
        # spawn() retains the task, surfaces its exception at the next
        # drain, and holds quiescence until the scrape lands.
        testbed.simulator.spawn(_do())

    testbed.simulator.schedule(0.05, _launch, daemon=True)


def _finish_telemetry(testbed: LiveTestbed, plane, scrape: dict) -> dict:
    """Close out the streaming plane and build its summary block.

    The verdict the plane's auditor reached through the trace tap must
    agree with a post-hoc audit of the recorded trace — identical
    violation multiset and check counts.  Both run the same engine, so
    agreement proves the *tap* delivered every event, once, in order.
    The endpoint must also have served a parseable exposition; either
    failure turns ``ok`` False (and the exit code nonzero).
    """
    plane.stop()
    if "body" not in scrape:
        try:
            scrape["body"] = plane.scrape()
            scrape["midrun"] = False
        except Exception as exc:
            scrape.setdefault("error", exc)
    samples = 0
    scrape_error = scrape.get("error")
    if "body" in scrape:
        try:
            samples = len(parse_exposition(scrape["body"]))
        except ValueError as exc:
            scrape_error = exc
    stream = plane.auditor.report()
    batch = audit_trace(testbed.observability.trace.events)

    def _key(violation) -> tuple:
        return (violation.kind, violation.message, tuple(violation.events))

    verdict_match = (
        sorted(_key(v) for v in stream.violations)
        == sorted(_key(v) for v in batch.violations)
        and stream.checks == batch.checks)
    host, port = plane.endpoint
    ok = (scrape_error is None and samples > 0 and verdict_match
          and stream.ok == batch.ok)
    return {
        "endpoint": f"{host}:{port}",
        "ticks": plane.ticks,
        "scrape_midrun": bool(scrape.get("midrun", False)),
        "scrape_error": (None if scrape_error is None
                         else str(scrape_error)),
        "scrape_samples": samples,
        "incremental_ok": stream.ok,
        "incremental_events": stream.events_audited,
        "incremental_violations": len(stream.violations),
        "peak_tracked_spans": stream.peak_tracked_spans,
        "verdict_match": verdict_match,
        "ok": ok,
    }


def _print_summary(summary: dict) -> None:
    lines: List[str] = [
        "Figure 7 over live loopback sockets",
        f"  zones / domains        {summary['zones']} / {summary['domains']}",
        f"  dynamic updates        {summary['updates_applied']}",
        f"  CACHE-UPDATEs / acks   {summary.get('notifications_sent', 0)}"
        f" / {summary.get('acks_received', 0)}",
        f"  max datagram (B)       {summary['max_message_size']}",
        f"  trace events           {summary['trace_events']}",
        f"  captured datagrams     {summary['captured_datagrams']}",
        f"  audit                  "
        f"{'ok' if summary['audit_ok'] else 'VIOLATIONS'}",
    ]
    for violation in summary["violations"]:
        lines.append(f"    {violation['kind']}: {violation['message']}")
    sanitizer = summary.get("sanitizer")
    if sanitizer:
        lines.append(
            f"  sanitizer              "
            f"{'clean' if sanitizer['ok'] else 'REPORTS'}")
        for entry in sanitizer["reports"]:
            lines.append(
                f"    {entry['code']} {entry['path']}:{entry['line']} "
                f"{entry['message']}")
    telemetry = summary.get("telemetry")
    if telemetry:
        lines.extend([
            f"  telemetry endpoint     {telemetry['endpoint']} "
            f"({telemetry['ticks']} ticks)",
            f"  scrape                 "
            f"{telemetry['scrape_samples']} samples"
            f"{' (mid-run)' if telemetry['scrape_midrun'] else ''}"
            + (f" ERROR: {telemetry['scrape_error']}"
               if telemetry['scrape_error'] else ""),
            f"  incremental audit      "
            f"{'ok' if telemetry['incremental_ok'] else 'VIOLATIONS'} "
            f"({telemetry['incremental_events']} events, peak "
            f"{telemetry['peak_tracked_spans']} tracked spans, "
            f"verdict {'matches' if telemetry['verdict_match'] else 'DIVERGES from'} batch audit)",
        ])
    print("\n".join(lines))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
