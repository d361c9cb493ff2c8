"""Run reports: percentiles, per-domain timelines, markdown audits.

The trace is the full account of a run; this module turns it into the
things an operator actually reads:

* :func:`histogram_percentile` — bucket-interpolated quantiles
  (p50/p95/p99) from a :class:`repro.obs.Histogram` or its snapshot
  dict, the standard fixed-bucket estimator;
* :func:`domain_timelines` — per-domain change timelines (detected,
  settled, window, acks) reconstructed from the spans;
* :func:`render_report` — a markdown audit report combining all of it
  with the invariant checker's verdict, the artifact ``repro-obs
  report`` writes for every benchmarked run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .analyze import summarize_events
from .audit import AuditLimits, AuditReport, audit_trace
from .metrics import Histogram, LATENCY_BUCKETS, bucket_quantile
from .spans import ChangeSpan, SpanSet, build_spans
from .trace import TraceEvent

#: The quantiles every report tabulates.
REPORT_QUANTILES = (50.0, 95.0, 99.0)

#: Either a live Histogram or the ``as_dict`` / snapshot form.
HistogramLike = Union[Histogram, Dict[str, object]]


def _histogram_parts(hist: HistogramLike
                     ) -> Tuple[int, List[Tuple[float, int]],
                                Optional[float], Optional[float]]:
    """(count, [(upper bound, count)], min, max) from either form."""
    if isinstance(hist, Histogram):
        count = hist.count
        buckets = list(zip((*hist.bounds, math.inf), hist.counts))
        low = hist.min if count else None
        high = hist.max if count else None
    else:
        count = int(hist["count"])  # type: ignore[arg-type]
        buckets = [(math.inf if bound is None else float(bound), int(n))
                   for bound, n in hist["buckets"]]  # type: ignore[union-attr]
        low = hist.get("min")  # type: ignore[union-attr]
        high = hist.get("max")  # type: ignore[union-attr]
    return count, buckets, low, high


def histogram_percentile(hist: HistogramLike, quantile: float
                         ) -> Optional[float]:
    """The ``quantile``-th percentile, linearly interpolated per bucket.

    The estimator is the standard fixed-bucket one, shared with every
    other call site through :func:`repro.obs.metrics.bucket_quantile`
    (live histograms short-circuit to :meth:`Histogram.quantile`): walk
    the cumulative counts to the bucket containing the target rank,
    then interpolate linearly inside it.  The first bucket's lower edge
    is the observed minimum (0 would bias small latencies), and the
    overflow bucket is clamped to the observed maximum — so estimates
    never leave the observed range.  None when the histogram is empty.
    """
    if isinstance(hist, Histogram):
        return hist.quantile(quantile)
    count, buckets, low, high = _histogram_parts(hist)
    return bucket_quantile(count, buckets, low, high, quantile)


def percentiles(hist: HistogramLike,
                quantiles: Sequence[float] = REPORT_QUANTILES
                ) -> Dict[str, Optional[float]]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` for ``quantiles``."""
    return {f"p{quantile:g}": histogram_percentile(hist, quantile)
            for quantile in quantiles}


# -- per-domain timelines -----------------------------------------------------


def domain_timelines(spans: SpanSet) -> Dict[str, List[ChangeSpan]]:
    """Change spans grouped by owner name, each group in seq order."""
    timelines: Dict[str, List[ChangeSpan]] = {}
    for span in spans.changes:
        timelines.setdefault(span.name or "?", []).append(span)
    for changes in timelines.values():
        changes.sort(key=lambda span: span.seq)
    return dict(sorted(timelines.items()))


# -- markdown rendering -------------------------------------------------------


def _fmt(value: object) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _md_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return "\n".join(lines)


def _derived_histograms(events: Sequence[TraceEvent],
                        spans: SpanSet) -> Dict[str, Histogram]:
    """Latency histograms rebuilt from the trace alone."""
    rtt_hist = Histogram("notify.ack_rtt", LATENCY_BUCKETS)
    window_hist = Histogram("notify.consistency_window", LATENCY_BUCKETS)
    staleness_hist = Histogram("notify.holder_staleness", LATENCY_BUCKETS)
    for span in spans.changes:
        window = span.window()
        if window is not None:
            window_hist.observe(window)
        for leg in span.legs:
            if leg.rtt is not None:
                rtt_hist.observe(leg.rtt)
            if leg.ack_t is not None and span.detected_t is not None:
                staleness_hist.observe(leg.ack_t - span.detected_t)
    for leg in spans.untracked:
        if leg.rtt is not None:
            rtt_hist.observe(leg.rtt)
    return {hist.name: hist
            for hist in (rtt_hist, window_hist, staleness_hist)}


def render_report(events: Sequence[TraceEvent],
                  capture: Optional[Sequence[Dict[str, object]]] = None,
                  limits: Optional[AuditLimits] = None,
                  title: str = "DNScup run report",
                  max_domains: int = 40,
                  audit: Optional[AuditReport] = None) -> str:
    """One markdown document telling a run's whole story.

    Sections: run overview, notification percentiles (bucket-
    interpolated p50/p95/p99), per-domain change timelines (capped at
    ``max_domains`` groups), and the invariant audit — either the
    supplied ``audit`` or one freshly run over ``events``/``capture``.
    """
    if audit is None:
        audit = audit_trace(events, capture=capture,
                            limits=limits or AuditLimits())
    spans = build_spans(events)
    summary = summarize_events(events)
    sections: List[str] = [f"# {title}", ""]

    span_info = summary["span"]
    notify = summary["notify"]
    lease = summary["lease"]
    sections.append("## Run overview")
    sections.append("")
    sections.append(_md_table(
        ("quantity", "value"),
        [("trace events", span_info["count"]),
         ("virtual time span (s)",
          None if span_info["first"] is None
          else span_info["last"] - span_info["first"]),
         ("changes detected", summary["changes"]["detected"]),
         ("changes settled with ack",
          summary["changes"]["settled_with_ack"]),
         ("CACHE-UPDATEs sent", notify["sends"]),
         ("retransmissions", notify["retransmits"]),
         ("acks / timeouts", f"{notify['acks']} / {notify['timeouts']}"),
         ("lease grants / renewals",
          f"{lease['grants']} / {lease['renewals']}"),
         ("captured datagrams",
          len(capture) if capture is not None else None)]))
    sections.append("")

    sections.append("## Notification percentiles (bucket-interpolated)")
    sections.append("")
    hists = _derived_histograms(events, spans)
    rows = []
    for name, hist in hists.items():
        stats = percentiles(hist)
        rows.append((name, hist.count, _fmt(hist.mean), _fmt(stats["p50"]),
                     _fmt(stats["p95"]), _fmt(stats["p99"]),
                     _fmt(hist.max if hist.count else None)))
    sections.append(_md_table(
        ("quantity (s)", "count", "mean", "p50", "p95", "p99", "max"),
        rows))
    sections.append("")

    sections.append("## Per-domain timelines")
    sections.append("")
    timelines = domain_timelines(spans)
    if not timelines:
        sections.append("No tracked changes in this trace.")
    else:
        rows = []
        for name, changes in list(timelines.items())[:max_domains]:
            for span in changes:
                rows.append((name, span.seq, _fmt(span.detected_t),
                             _fmt(span.settled_t), _fmt(span.window()),
                             len(span.acked_legs()), len(span.legs)))
        sections.append(_md_table(
            ("domain", "seq", "detected (s)", "settled (s)", "window (s)",
             "acked", "holders"), rows))
        if len(timelines) > max_domains:
            sections.append("")
            sections.append(f"*…{len(timelines) - max_domains} further "
                            f"domains elided.*")
    sections.append("")

    sections.append("## Invariant audit")
    sections.append("")
    checked = sum(audit.checks.values())
    if audit.ok:
        sections.append(f"**0 violations** across {checked} checks "
                        f"({', '.join(sorted(audit.checks)) or 'none run'}).")
    else:
        sections.append(f"**{len(audit.violations)} violation(s)** across "
                        f"{checked} checks:")
        sections.append("")
        sections.append(_md_table(
            ("kind", "seq", "t (s)", "events", "message"),
            [(v.kind, v.seq or "—", _fmt(v.t),
              " ".join(str(i) for i in v.events), v.message)
             for v in audit.violations]))
    sections.append("")
    return "\n".join(sections)
