"""``repro-obs``: inspect, audit, and report on exported traces.

Works on the JSONL event files written by
:meth:`repro.obs.TraceBus.export_jsonl` (plus, for the wire
cross-check, captures from :meth:`repro.obs.WireCapture.export_jsonl`):

* ``summarize`` — recompute the headline numbers (notification ack RTT,
  consistency windows, lease churn, datagram fates) from the raw events;
  ``--json`` emits the summary dict verbatim for machine consumption;
* ``export`` — flatten the trace to CSV (time, event, details) for
  spreadsheet spelunking;
* ``diff`` — compare two runs' summaries key by key (an A/B harness for
  "did my change alter the protocol's behaviour?");
* ``spans`` — rebuild causal spans: per-change notification trees and
  per-pair lease lifecycles;
* ``audit`` — run the protocol invariant checker (completeness,
  termination, causality, budgets, staleness, trace/wire agreement)
  over the whole file; exits 1 when any :class:`repro.obs.Violation`
  is found;
* ``report`` — render the full markdown run report (overview,
  bucket-interpolated percentiles, per-domain timelines, audit);
* ``tail`` — follow a *growing* trace file through the same auditor
  (:class:`repro.obs.IncrementalAuditor`): each poll feeds only the
  newly appended complete lines, prints a rolling verdict plus p50/p95
  consistency-window percentiles, and holds memory bounded no matter
  how long the run — the live companion to post-hoc ``audit``;
* ``load`` — replay the trace through a
  :class:`repro.obs.LoadLedger`: per-server message-class totals and
  decayed rates, the hottest (server, domain, class) keys, and any
  renewal-storm episodes the :class:`repro.obs.StormDetector` flags.

Every subcommand warns on stderr about event names outside the
PROTOCOL.md §9 contract; ``--strict`` turns the warning into an error.
A malformed trace line (not JSON, not an object, no usable ``t`` /
``event``) is always an error: one ``error: trace line N: ...`` line on
stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence, Set

from ..obs import (
    EVENT_FIELDS,
    LATENCY_BUCKETS,
    AuditLimits,
    AuditReport,
    Histogram,
    IncrementalAuditor,
    LoadLedger,
    StormDetector,
    Violation,
    audit_trace,
    build_spans,
    diff_summaries,
    load_capture,
    load_trace_events,
    render_report,
    summarize_events,
)
from ..obs.trace import TraceEvent, fields_dict, parse_trace_line
from ..report import format_table, write_csv


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for this tool."""
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Summarize, export, diff, audit, or report on "
                    "DNScup trace files.")
    parser.add_argument("--strict", action="store_true",
                        help="reject trace events whose names are outside "
                             "the PROTOCOL.md §9 contract (default: warn)")
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize", help="derive headline numbers from a trace")
    summarize.add_argument("trace", help="JSONL trace file")
    summarize.add_argument("--json", action="store_true",
                           help="emit the summary as JSON instead of tables")
    summarize.add_argument("--output",
                           help="write the summary there instead of stdout")

    export = sub.add_parser("export", help="flatten a trace to CSV")
    export.add_argument("trace", help="JSONL trace file")
    export.add_argument("--output", required=True, help="CSV destination")

    diff = sub.add_parser("diff", help="compare two traces' summaries")
    diff.add_argument("trace_a", help="baseline JSONL trace")
    diff.add_argument("trace_b", help="candidate JSONL trace")

    spans = sub.add_parser(
        "spans", help="rebuild causal spans (changes and leases)")
    spans.add_argument("trace", help="JSONL trace file")
    spans.add_argument("--limit", type=int, default=20,
                       help="rows per table (default 20; 0 = all)")

    audit = sub.add_parser(
        "audit", help="check the protocol invariants over a trace")
    audit.add_argument("trace", help="JSONL trace file")
    _audit_arguments(audit)
    audit.add_argument("--json", action="store_true",
                       help="emit the audit report as JSON")
    audit.add_argument("--output",
                       help="write the report there instead of stdout")

    tail = sub.add_parser(
        "tail", help="follow a growing trace and audit it incrementally")
    tail.add_argument("trace", help="JSONL trace file (may still be "
                                    "growing; may not exist yet)")
    _limit_arguments(tail)
    tail.add_argument("--interval", type=float, default=0.2,
                      metavar="SECONDS",
                      help="poll interval while idle (default 0.2)")
    tail.add_argument("--once", action="store_true",
                      help="read to the current end of file, print the "
                           "verdict, and exit (no following)")
    tail.add_argument("--idle-exit", type=float, default=None,
                      metavar="SECONDS",
                      help="exit once the file has not grown for this "
                           "long (default: follow forever)")
    tail.add_argument("--json", action="store_true",
                      help="emit each rolling verdict as a JSON line")

    load = sub.add_parser(
        "load", help="attribute per-server/per-domain load and detect "
                     "renewal storms")
    load.add_argument("trace", help="JSONL trace file")
    load.add_argument("--top", type=int, default=10, metavar="N",
                      help="hottest (server, domain, class) keys to show "
                           "(default 10)")
    load.add_argument("--window", type=float, default=10.0,
                      metavar="SECONDS",
                      help="fast decay window for rates (default 10)")
    load.add_argument("--baseline", type=float, default=600.0,
                      metavar="SECONDS",
                      help="slow decay window for the storm baseline "
                           "(default 600)")
    load.add_argument("--json", action="store_true",
                      help="emit the ledger snapshot as JSON")
    load.add_argument("--output",
                      help="write the output there instead of stdout")

    report = sub.add_parser(
        "report", help="render the full markdown run report")
    report.add_argument("trace", help="JSONL trace file")
    _audit_arguments(report)
    report.add_argument("--title", default="DNScup run report",
                        help="report heading")
    report.add_argument("--output",
                        help="write the markdown there instead of stdout")
    return parser


def _audit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--capture",
                        help="wire-capture JSONL for the trace/wire "
                             "cross-check")
    _limit_arguments(parser)


def _limit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--storage-budget", type=int, default=None,
                        help="§4.2.1 storage budget: max live leases")
    parser.add_argument("--renewal-budget", type=float, default=None,
                        help="§4.2.2 communication budget: renewals/second")
    parser.add_argument("--renewal-window", type=float, default=60.0,
                        help="sliding window for the renewal budget, "
                             "seconds (default 60)")
    parser.add_argument("--max-staleness", type=float, default=None,
                        help="bound on per-holder staleness, seconds")


def _warn_unknown(path: str, events: Sequence[TraceEvent],
                  warned: Set[str]) -> None:
    """Lax mode's warning: each event *name* outside the contract is
    reported exactly once per invocation, however many records carry it
    and however many traces or polls mention it (``diff`` loads two,
    ``tail`` polls) — ``warned`` carries the already-reported names."""
    unknown = sorted({name for _t, name, _f in events
                      if name not in EVENT_FIELDS} - warned)
    if unknown:
        warned.update(unknown)
        print(f"warning: {path}: events outside the PROTOCOL.md §9 "
              f"contract: {', '.join(unknown)}", file=sys.stderr)


def _load(path: str, strict: bool, warned: Set[str]) -> List[TraceEvent]:
    """Load a trace, enforcing (``strict``: the loader raises) or
    warning about the name contract."""
    events = load_trace_events(path, strict=strict)
    if not strict:
        _warn_unknown(path, events, warned)
    return events


def _limits(args: argparse.Namespace) -> AuditLimits:
    return AuditLimits(storage_budget=args.storage_budget,
                       renewal_budget=args.renewal_budget,
                       renewal_window=args.renewal_window,
                       max_staleness=args.max_staleness)


def _format_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _summary_tables(summary: dict) -> str:
    """Human-oriented rendering of one trace summary."""
    sections: List[str] = []
    span = summary["span"]
    sections.append(format_table(
        ("events", "first", "last"),
        [(span["count"], _format_value(span["first"]),
          _format_value(span["last"]))],
        title="Trace span"))
    bus = summary.get("bus")
    if bus is not None:
        sections.append(format_table(
            ("emitted", "retained", "dropped", "cleared"),
            [(bus.get("emitted", "-"), bus.get("retained", "-"),
              bus.get("dropped", "-"), bus.get("cleared", "-"))],
            title="Trace bus (dropped = ring overflow, "
                  "cleared = explicit clear())"))
    sections.append(format_table(
        ("event", "count"),
        sorted(summary["events"].items()),
        title="Event counts"))
    stat_rows = []
    for label, stats in (("ack_rtt", summary["notify"]["ack_rtt"]),
                         ("consistency_window",
                          summary["changes"]["consistency_window"])):
        stat_rows.append((label, stats["count"],
                          _format_value(stats["mean"]),
                          _format_value(stats["min"]),
                          _format_value(stats["max"])))
    sections.append(format_table(
        ("quantity", "count", "mean", "min", "max"), stat_rows,
        title="Derived timings (seconds)"))
    return "\n\n".join(sections)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as stream:
            stream.write(text + "\n")
    else:
        print(text)


def cmd_summarize(args: argparse.Namespace) -> int:
    events = _load(args.trace, args.strict, args.warned)
    summary = summarize_events(events)
    if args.json:
        _emit(json.dumps(summary, sort_keys=True, indent=2), args.output)
    else:
        _emit(_summary_tables(summary), args.output)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    events = _load(args.trace, args.strict, args.warned)
    rows = [(f"{event[0]!r}", event[1],
             " ".join(f"{key}={value}"
                      for key, value in fields_dict(event).items()))
            for event in events]
    write_csv(args.output, ("t", "event", "details"), rows)
    print(f"{len(rows)} events written to {args.output}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    summary_a = summarize_events(_load(args.trace_a, args.strict,
                                       args.warned))
    summary_b = summarize_events(_load(args.trace_b, args.strict,
                                       args.warned))
    rows = [(key, _format_value(left), _format_value(right))
            for key, left, right in diff_summaries(summary_a, summary_b)]
    if not rows:
        print("summaries identical")
        return 0
    print(format_table(("key", args.trace_a, args.trace_b), rows,
                       title=f"{len(rows)} differing keys"))
    return 1


def _clip(rows: Sequence, limit: int) -> Sequence:
    return rows if limit <= 0 else rows[:limit]


def cmd_spans(args: argparse.Namespace) -> int:
    events = _load(args.trace, args.strict, args.warned)
    spans = build_spans(events)
    change_rows = [(span.seq, span.name or "-", span.rrtype or "-",
                    _format_value(span.detected_t),
                    _format_value(span.settled_t),
                    _format_value(span.window()),
                    len(span.acked_legs()), len(span.legs),
                    sum(len(leg.retransmits) for leg in span.legs))
                   for span in spans.changes]
    print(format_table(
        ("seq", "name", "type", "detected", "settled", "window",
         "acked", "holders", "rexmits"),
        _clip(change_rows, args.limit),
        title=f"Change spans ({len(spans.changes)} total, "
              f"{len(spans.untracked)} untracked legs)"))
    print()
    lease_rows = [(span.cache, span.name, span.rrtype,
                   _format_value(span.granted_at),
                   _format_value(span.length), len(span.renewals),
                   span.end_kind or "open")
                  for span in spans.leases]
    print(format_table(
        ("cache", "name", "type", "granted", "length", "renewals", "end"),
        _clip(lease_rows, args.limit),
        title=f"Lease spans ({len(spans.leases)} total, "
              f"{sum(1 for s in spans.leases if s.open)} open)"))
    if spans.orphans:
        print()
        print(format_table(
            ("event index", "reason"), _clip(spans.orphans, args.limit),
            title=f"Orphan events ({len(spans.orphans)})"))
    return 0


def _audit(args: argparse.Namespace) -> AuditReport:
    events = _load(args.trace, args.strict, args.warned)
    capture = load_capture(args.capture) if args.capture else None
    return audit_trace(events, capture=capture, limits=_limits(args))


def cmd_audit(args: argparse.Namespace) -> int:
    report = _audit(args)
    if args.json:
        _emit(json.dumps(report.as_dict(), indent=2), args.output)
    else:
        checked = sum(report.checks.values())
        if report.ok:
            _emit(f"OK: 0 violations across {checked} checks "
                  f"({', '.join(sorted(report.checks)) or 'none run'})",
                  args.output)
        else:
            rows = [(v.kind, v.seq or "-", _format_value(v.t),
                     " ".join(str(i) for i in v.events), v.message)
                    for v in report.violations]
            _emit(format_table(
                ("kind", "seq", "t", "events", "message"), rows,
                title=f"{len(report.violations)} violation(s) across "
                      f"{checked} checks"), args.output)
    return 0 if report.ok else 1


class TraceFollower:
    """Incremental reader of a (possibly still growing) JSONL trace.

    Each :meth:`poll` reads whatever appeared since the last one and
    parses only *complete* lines; a trailing partial line — a writer
    caught mid-record — is buffered until its newline arrives, so a
    torn record is never parsed and nothing is ever re-read.  State is
    one file offset, a line count and at most one pending line,
    whatever the file size: the memory bound ``tail`` advertises.
    """

    def __init__(self, path: str, strict: bool = False):
        self.path = path
        self.strict = strict
        self._offset = 0
        self._lineno = 0
        self._partial = ""

    def poll(self) -> List[TraceEvent]:
        """Complete events appended since the last poll (may be [])."""
        with open(self.path, "r") as stream:
            stream.seek(self._offset)
            chunk = stream.read()
            self._offset = stream.tell()
        if not chunk:
            return []
        lines = (self._partial + chunk).split("\n")
        self._partial = lines.pop()
        first = self._lineno + 1
        self._lineno += len(lines)
        return [parse_trace_line(line, lineno, self.strict)
                for lineno, line in enumerate(lines, start=first)
                if line.strip()]


def _tail_status(auditor: IncrementalAuditor, window_hist: Histogram,
                 fresh: Sequence[Violation], final: bool) -> dict:
    """One rolling-verdict record for ``tail``'s output."""
    report = auditor.report() if final else None
    violations = (len(report.violations) if report is not None
                  else len(auditor.permanent_violations))
    p50 = window_hist.quantile(50.0)
    p95 = window_hist.quantile(95.0)
    status = {
        "events": auditor.events_audited,
        "tracked_spans": auditor.tracked_spans,
        "peak_tracked_spans": auditor.peak_tracked_spans,
        "violations": violations,
        "new_violations": [v.as_dict() for v in fresh],
        "window_p50": p50,
        "window_p95": p95,
    }
    if final:
        assert report is not None
        status["final"] = True
        status["ok"] = report.ok
        status["checks"] = dict(report.checks)
    return status


def _print_tail_status(status: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(status, sort_keys=True), flush=True)
        return
    fmt = lambda v: "-" if v is None else f"{v:.6g}"  # noqa: E731
    label = "FINAL " if status.get("final") else ""
    verdict = ""
    if "ok" in status:
        verdict = " ok" if status["ok"] else " VIOLATIONS"
    print(f"{label}events={status['events']} "
          f"tracked={status['tracked_spans']} "
          f"peak={status['peak_tracked_spans']} "
          f"violations={status['violations']} "
          f"window p50={fmt(status['window_p50'])} "
          f"p95={fmt(status['window_p95'])}{verdict}", flush=True)
    for violation in status["new_violations"]:
        print(f"  VIOLATION {violation['kind']}: {violation['message']}",
              flush=True)


def cmd_tail(args: argparse.Namespace) -> int:
    window_hist = Histogram("notify.consistency_window", LATENCY_BUCKETS)
    auditor = IncrementalAuditor(limits=_limits(args),
                                 window_hist=window_hist)
    follower = TraceFollower(args.trace, args.strict)
    idle = 0.0
    while True:
        try:
            batch = follower.poll()
        except FileNotFoundError:
            batch = []
        if batch:
            idle = 0.0
            if not args.strict:
                _warn_unknown(args.trace, batch, args.warned)
            fresh: List[Violation] = []
            for event in batch:
                fresh.extend(auditor.feed(event))
            _print_tail_status(
                _tail_status(auditor, window_hist, fresh, final=False),
                args.json)
        else:
            idle += args.interval
        if args.once:
            break
        if args.idle_exit is not None and idle >= args.idle_exit:
            break
        if not batch:
            time.sleep(args.interval)
    report = auditor.report()
    _print_tail_status(_tail_status(auditor, window_hist, [], final=True),
                       args.json)
    return 0 if report.ok else 1


def _load_tables(snapshot: dict, top: List[dict]) -> str:
    """Human-oriented rendering of a load-ledger snapshot."""
    fmt = _format_value
    sections: List[str] = []
    sections.append(format_table(
        ("events", "servers", "keys", "domains", "rate (ev/s)",
         "peak rate"),
        [(snapshot["total"], len(snapshot["servers"]), snapshot["keys"],
          snapshot["domains"], fmt(snapshot["rate"]),
          fmt(snapshot["peak_rate"]))],
        title="Load totals"))
    server_rows = []
    for name, load in snapshot["servers"].items():
        server_rows.append((
            name, load["count"], fmt(load["rate"]), fmt(load["baseline"]),
            fmt(load["peak_rate"]), fmt(load["rate_quantiles"]["p99"]),
            fmt(load["gap"]["p50"]), fmt(load["depth"]["p99"])))
    if server_rows:
        sections.append(format_table(
            ("server", "events", "rate", "baseline", "peak", "rate p99",
             "gap p50", "depth p99"), server_rows,
            title="Per-server load (decayed rates, log-bucket quantiles)"))
    if top:
        sections.append(format_table(
            ("server", "domain", "class", "count", "rate"),
            [(row["server"], row["domain"], row["class"], row["count"],
              fmt(row["rate"])) for row in top],
            title="Hottest keys"))
    storms = snapshot["storms"]
    episode_rows = [
        (episode["server"], fmt(episode["start"]),
         fmt(episode.get("end")), fmt(episode["peak_rate"]),
         fmt(episode["baseline"]), episode["events"])
        for episode in storms["episodes"]]
    sections.append(format_table(
        ("server", "start", "end", "peak rate", "baseline", "events"),
        episode_rows,
        title=f"Storm episodes (active: {storms['active']})"))
    return "\n\n".join(sections)


def cmd_load(args: argparse.Namespace) -> int:
    events = _load(args.trace, args.strict, args.warned)
    ledger = LoadLedger(window=args.window, baseline=args.baseline,
                        detector=StormDetector())
    # Replay in timestamp order (stable for ties) so decayed rates and
    # storm hysteresis see the same sequence the run produced, even if
    # the file interleaves merged traces.
    for event in sorted(events, key=lambda item: item[0]):
        ledger.on_event(event)
    snapshot = ledger.snapshot()
    snapshot["rate"] = ledger.rate()
    snapshot["peak_rate"] = ledger.peak_rate()
    top = ledger.top(args.top)
    if args.json:
        snapshot["top"] = top
        _emit(json.dumps(snapshot, sort_keys=True, indent=2), args.output)
    else:
        _emit(_load_tables(snapshot, top), args.output)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    events = _load(args.trace, args.strict, args.warned)
    capture = load_capture(args.capture) if args.capture else None
    audit = audit_trace(events, capture=capture, limits=_limits(args))
    _emit(render_report(events, capture=capture, title=args.title,
                        audit=audit), args.output)
    return 0 if audit.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    #: Unknown event names already warned about in this invocation.
    args.warned = set()
    handler = {"summarize": cmd_summarize, "export": cmd_export,
               "diff": cmd_diff, "spans": cmd_spans,
               "audit": cmd_audit, "report": cmd_report,
               "tail": cmd_tail, "load": cmd_load}[args.command]
    try:
        return handler(args)
    except ValueError as exc:  # a malformed or off-contract trace line
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
