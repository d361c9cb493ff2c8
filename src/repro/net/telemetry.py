"""The live telemetry plane: streaming audit + a real /metrics endpoint.

Three pieces, assembled by :class:`TelemetryPlane` onto a running live
testbed (:mod:`repro.sim.livetestbed`):

* **streaming audit** — the trace bus's ``tap`` hook feeds every event,
  as it is emitted, into an
  :class:`~repro.obs.audit.IncrementalAuditor`, so protocol
  violations are known *while the run executes* instead of post-hoc;
  with ``fail_fast`` the first permanent violation surfaces through the
  clock's error probes and aborts
  :meth:`~repro.net.clock.LiveClock.wait_quiescent` — the live run
  fails at the moment the invariant breaks;
* **periodic snapshots** — a daemon tick on the
  :class:`~repro.net.clock.LiveClock`
  (:meth:`~repro.net.clock.LiveClock.schedule_repeating`) renders the
  metrics registry into one consistent text-exposition document per
  interval, so a scrape always sees an atomic snapshot, never a
  half-updated registry;
* **the endpoint** — an
  :meth:`~repro.net.aio.AioNetwork.expose_text` loopback HTTP port
  serving that document in the Prometheus text exposition format
  (PROTOCOL.md §9.4), scrapeable by any HTTP client while the run is
  in flight (:meth:`TelemetryPlane.ascrape` is the built-in one).

Everything here follows the zero-cost-when-off contract: nothing is
built unless the plane is constructed and started, the trace tap is a
single pointer check per emit, and every metrics touch inside the
plane is guarded (``repro-lint``'s DCUP005 rule covers this module).
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from ..obs.audit import AuditLimits, IncrementalAuditor, Violation
from ..obs.metrics import LATENCY_BUCKETS
from ..obs.trace import TraceEvent
from ..obs.wiring import Observability
from .aio import AioNetwork, TextExpositionPort
from .clock import LiveClock, LiveRepeatingHandle

__all__ = [
    "TelemetryError",
    "TelemetryPlane",
    "parse_exposition",
    "render_exposition",
    "sanitize_metric_name",
]

#: Registry name of the histogram the plane fills with per-change
#: consistency windows (max ack time minus detection time, seconds).
CONSISTENCY_WINDOW_METRIC = "telemetry.consistency_window"


class TelemetryError(RuntimeError):
    """A protocol violation detected by the streaming audit mid-run."""


def sanitize_metric_name(name: str, prefix: str = "dnscup") -> str:
    """Registry name -> Prometheus metric name.

    Registry names are dotted (``net.datagrams_sent``); the exposition
    grammar allows ``[a-zA-Z_:][a-zA-Z0-9_:]*``, so every other
    character becomes ``_`` and the configured prefix namespaces the
    result (``dnscup_net_datagrams_sent``).
    """
    cleaned = "".join(
        ch if ("a" <= ch <= "z" or "A" <= ch <= "Z" or ch == "_"
               or "0" <= ch <= "9") else "_"
        for ch in name)
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _format_value(value: object) -> str:
    """One exposition sample value: integers bare, floats via repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if number != number:
        return "NaN"
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    return repr(number)


def render_exposition(snapshot: Dict[str, Dict[str, object]],
                      prefix: str = "dnscup") -> str:
    """A :meth:`~repro.obs.metrics.Registry.snapshot` as exposition text.

    Prometheus text format 0.0.4 (PROTOCOL.md §9.4): one ``# TYPE``
    line per metric, counters and gauges as single samples, histograms
    as *cumulative* ``_bucket{le="..."}`` samples (each bucket counts
    every observation at or below its bound, ending with ``le="+Inf"``)
    plus ``_sum`` and ``_count``.  Metric order follows the snapshot's
    sorted keys, so identical registries render byte-identically.
    """
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    for name in counters:
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counters[name])}")
    gauges = snapshot.get("gauges", {})
    for name in gauges:
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauges[name])}")
    histograms = snapshot.get("histograms", {})
    for name in histograms:
        metric = sanitize_metric_name(name, prefix)
        data = histograms[name]
        assert isinstance(data, dict)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in data["buckets"]:
            cumulative += count
            label = "+Inf" if bound is None else _format_value(bound)
            lines.append(f'{metric}_bucket{{le="{label}"}} {cumulative}')
        total = data["sum"]
        lines.append(f"{metric}_sum "
                     f"{_format_value(0.0 if total is None else total)}")
        lines.append(f"{metric}_count {_format_value(data['count'])}")
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> Dict[str, float]:
    """Exposition text -> ``{sample name (with labels): value}``.

    The inverse of :func:`render_exposition`, strict enough for the CI
    scrape assertion: comment/blank lines are skipped, every other line
    must be ``name[{labels}] value`` with a parseable float value, and
    duplicate sample names raise — a malformed or torn scrape fails
    loudly instead of producing a silently short dict.
    """
    samples: Dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"exposition line {lineno}: no sample name")
        if name in samples:
            raise ValueError(f"exposition line {lineno}: duplicate "
                             f"sample {name!r}")
        try:
            samples[name] = float(value)
        except ValueError:
            raise ValueError(f"exposition line {lineno}: bad value "
                             f"{value!r}") from None
    return samples


class TelemetryPlane:
    """Streaming audit + periodic snapshots + a live /metrics endpoint.

    Construct with the run's clock, live network, and observability
    bundle, then :meth:`start` *before* driving traffic; the plane
    taps the trace bus, registers its gauges, opens the endpoint, and
    arms the snapshot tick (all daemon — the plane never holds off
    quiescence).  ``fail_fast=True`` (the default) turns the first
    permanent audit violation into a :class:`TelemetryError` raised
    out of the clock's drain.
    """

    def __init__(self, clock: LiveClock, network: AioNetwork,
                 observability: Observability,
                 interval: float = 0.25,
                 limits: Optional[AuditLimits] = None,
                 fail_fast: bool = True,
                 prefix: str = "dnscup"):
        self.clock = clock
        self.network = network
        self.observability = observability
        self.registry = observability.registry
        self.interval = interval
        self.fail_fast = fail_fast
        self.prefix = prefix
        window_hist = self.registry.histogram(CONSISTENCY_WINDOW_METRIC,
                                              LATENCY_BUCKETS)
        self.auditor = IncrementalAuditor(limits=limits,
                                          window_hist=window_hist)
        #: Permanent violations in detection order (grows via the tap).
        self.violations: List[Violation] = []
        self.port: Optional[TextExpositionPort] = None
        self.document = ""
        self._tick_handle: Optional[LiveRepeatingHandle] = None
        self._started = False
        self._raised = False
        auditor = self.auditor
        self.registry.gauge("telemetry.audit.events",
                            fn=lambda: float(auditor.events_audited))
        self.registry.gauge("telemetry.audit.violations",
                            fn=lambda: float(len(self.violations)))
        self.registry.gauge("telemetry.audit.tracked_spans",
                            fn=lambda: float(auditor.tracked_spans))
        self.registry.gauge("telemetry.audit.peak_tracked_spans",
                            fn=lambda: float(auditor.peak_tracked_spans))
        self.registry.gauge("telemetry.ticks", fn=lambda: float(self.ticks))

    @property
    def ticks(self) -> int:
        """Snapshot ticks completed so far."""
        return self._tick_handle.fired if self._tick_handle is not None \
            else 0

    @property
    def endpoint(self) -> Tuple[str, int]:
        """The scrape endpoint's real ``(host, port)``."""
        if self.port is None:
            raise RuntimeError("telemetry plane not started")
        return self.port.address

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Tap the trace, open the endpoint, arm the tick; idempotent.

        Subscribes via :meth:`~repro.obs.trace.TraceBus.add_tap`, so
        the plane coexists with other tap consumers (e.g. a
        :class:`repro.obs.load.LoadLedger` fed from the same bus).
        """
        if self._started:
            return
        self._started = True
        self.observability.trace.add_tap(self._on_event)
        self.clock.add_service(error=self._pop_error)
        self.document = render_exposition(self.registry.snapshot(),
                                          prefix=self.prefix)
        self.port = self.network.expose_text(lambda: self.document)
        self._tick_handle = self.clock.schedule_repeating(
            self.interval, self._tick, daemon=True)

    def stop(self) -> None:
        """Un-tap the trace and stop the tick (the endpoint closes with
        the network); a final snapshot is rendered so post-run scrapes
        and :attr:`document` reflect the completed run."""
        if not self._started:
            return
        self._started = False
        self.observability.trace.remove_tap(self._on_event)
        if self._tick_handle is not None:
            self._tick_handle.cancel()
        self.document = render_exposition(self.registry.snapshot(),
                                          prefix=self.prefix)

    # -- streaming hooks -------------------------------------------------------

    def _on_event(self, record: TraceEvent) -> None:
        self.violations.extend(self.auditor.feed(record))

    def _tick(self) -> None:
        self.document = render_exposition(self.registry.snapshot(),
                                          prefix=self.prefix)

    def _pop_error(self) -> Optional[BaseException]:
        if self.fail_fast and self.violations and not self._raised:
            self._raised = True
            first = self.violations[0]
            return TelemetryError(
                f"streaming audit violation ({len(self.violations)} so "
                f"far): {first.kind}: {first.message}")
        return None

    # -- scraping --------------------------------------------------------------

    async def ascrape(self) -> str:
        """GET the endpoint over a real socket; returns the body text.

        Raises :class:`TelemetryError` unless the response parses as an
        ``HTTP/1.0 200`` with a body — the built-in client for the CI
        mid-run scrape assertion.
        """
        if self.port is None:
            raise RuntimeError("telemetry plane not started")
        reader, writer = await asyncio.open_connection(*self.port.address)
        try:
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        head, sep, body = raw.partition(b"\r\n\r\n")
        status = head.split(b"\r\n", 1)[0]
        if not sep or b" 200 " not in status + b" ":
            raise TelemetryError(f"scrape failed: {status.decode('ascii', 'replace')!r}")
        return body.decode("utf-8")

    def scrape(self) -> str:
        """Synchronous :meth:`ascrape` for use outside the loop."""
        return self.clock.loop.run_until_complete(self.ascrape())
