"""Observability: sim-clock-aware tracing, metrics, and wire capture.

Three instruments, all off by default and zero-cost when off:

* :class:`TraceBus` — ring-buffered structured event recorder stamped
  with the simulator's virtual clock; JSONL export for ``repro-obs``;
* :class:`Registry` — counters, gauges, and fixed-bucket histograms
  behind one :meth:`Registry.snapshot`;
* :class:`WireCapture` — a pcap-like JSONL record of every simulated
  datagram (timestamp, endpoints, DNS header fields, size, fate).

:class:`Observability` bundles the three and attaches them across the
stack; :mod:`repro.obs.analyze` recomputes the evaluation's headline
numbers (ack RTT, consistency window) from the raw trace alone.

On top of the raw record sits the auditing layer:

* :mod:`repro.obs.audit` checks the protocol's guarantees
  (completeness, termination, causality, budget conformance,
  staleness, trace/wire agreement) one event at a time and emits
  :class:`Violation` records — :class:`IncrementalAuditor` online,
  :func:`audit_trace` over a finished trace, one engine;
* :mod:`repro.obs.spans` rebuilds causal spans — per-change
  notification trees and per-pair lease lifecycles — for the reports
  and the trace/wire cross-check;
* :mod:`repro.obs.report` renders bucket-interpolated percentiles,
  per-domain timelines, and the markdown run report behind
  ``repro-obs audit|spans|report``.
"""

from .analyze import (
    consistency_windows,
    diff_summaries,
    flatten_summary,
    summarize_events,
)
from .audit import (
    AuditLimits,
    AuditReport,
    BUDGET_RENEWAL,
    BUDGET_STORAGE,
    CAUSALITY,
    COMPLETENESS,
    IncrementalAuditor,
    STALENESS,
    TERMINATION,
    VIOLATION_KINDS,
    Violation,
    WIRE,
    audit_observability,
    audit_trace,
)
from .capture import (
    FATE_DELIVERED,
    FATE_DROPPED,
    FATE_UNREACHABLE,
    WireCapture,
    load_capture,
    sniff_header,
)
from .load import (
    DecayedRate,
    LoadLedger,
    LoadRecorder,
    StormDetector,
    StormEpisode,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    LEASE_BUCKETS,
    Registry,
    bucket_quantile,
)
from .report import (
    REPORT_QUANTILES,
    domain_timelines,
    histogram_percentile,
    percentiles,
    render_report,
)
from .spans import (
    ChangeSpan,
    LeaseSpan,
    NotificationLeg,
    SpanSet,
    build_spans,
)
from .trace import (
    CHANGE_DETECTED,
    CHANGE_SETTLED,
    EVENT_FIELDS,
    EVENT_NAMES,
    LOAD_STORM_END,
    LOAD_STORM_START,
    TRACE_META,
    LEASE_EXPIRE,
    LEASE_GRANT,
    LEASE_RENEW,
    LEASE_REVOKE,
    NET_DELIVER,
    NET_DROP,
    NET_DUPLICATE,
    NET_UNREACHABLE,
    NOTIFY_ACK,
    NOTIFY_RETRANSMIT,
    NOTIFY_SEND,
    NOTIFY_TIMEOUT,
    PUSH_KEEPALIVE,
    PUSH_SEND,
    RENEGO_FAIL,
    RENEGO_LOST,
    RENEGO_REFRESH,
    RENEGO_SEND,
    TraceBus,
    TraceEvent,
    load_trace_events,
)
from .wiring import Observability

__all__ = [
    "TraceBus", "TraceEvent", "load_trace_events",
    "EVENT_FIELDS", "EVENT_NAMES", "TRACE_META",
    "LEASE_GRANT", "LEASE_RENEW", "LEASE_EXPIRE", "LEASE_REVOKE",
    "CHANGE_DETECTED", "CHANGE_SETTLED",
    "NOTIFY_SEND", "NOTIFY_RETRANSMIT", "NOTIFY_ACK", "NOTIFY_TIMEOUT",
    "NET_DELIVER", "NET_DROP", "NET_DUPLICATE", "NET_UNREACHABLE",
    "RENEGO_SEND", "RENEGO_REFRESH", "RENEGO_LOST", "RENEGO_FAIL",
    "PUSH_SEND", "PUSH_KEEPALIVE",
    "LOAD_STORM_START", "LOAD_STORM_END",
    "Counter", "Gauge", "Histogram", "Registry", "bucket_quantile",
    "LATENCY_BUCKETS", "LEASE_BUCKETS",
    "LoadLedger", "LoadRecorder", "StormDetector", "StormEpisode",
    "DecayedRate",
    "WireCapture", "load_capture", "sniff_header",
    "FATE_DELIVERED", "FATE_DROPPED", "FATE_UNREACHABLE",
    "summarize_events", "consistency_windows", "flatten_summary",
    "diff_summaries",
    "Observability",
    "ChangeSpan", "LeaseSpan", "NotificationLeg", "SpanSet", "build_spans",
    "AuditLimits", "AuditReport", "Violation", "VIOLATION_KINDS",
    "audit_trace", "audit_observability",
    "IncrementalAuditor",
    "COMPLETENESS", "TERMINATION", "CAUSALITY",
    "BUDGET_STORAGE", "BUDGET_RENEWAL", "STALENESS", "WIRE",
    "histogram_percentile", "percentiles", "REPORT_QUANTILES",
    "domain_timelines", "render_report",
]
