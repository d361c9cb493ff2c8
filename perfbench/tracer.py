"""Outside-in layer spans, recorded from the benchmark's own files.

The program under test carries no timing code.  For a traced iteration
the benchmark swaps wrappers onto the *public* callables of each layer
(resolved with ``getattr``, so an entry point a later PR removes simply
contributes nothing) and restores the originals afterwards.  A wrapper
pushes a span — ``(layer, start_ns, end_ns, parent)`` — on one stack;
a layer's *self time* is its spans' durations minus the part their
child spans cover, so the self times of one iteration sum to the root
span's duration exactly.

Callbacks that cross a public boundary (a handler given to
``Network.bind`` / ``Socket.on_receive`` / ``Socket.request``, an event
given to ``Simulator.schedule_at``) are wrapped too and attributed to
the layer of the module that *defined* them: the delivery closure the
network schedules is ``net.network`` time, the notification module's
ack continuation is ``core.notification`` time, and anything defined
outside the table below (stub resolvers, scenario drivers, this
benchmark's load generator) lands in :data:`ROOT`.

Bound methods captured while a world is built keep whatever was on the
class at that moment, so wrappers must be installed *before* the world
is built and a world built without them stays untraced.
"""

from __future__ import annotations

import collections
import importlib
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: The root span's layer: everything no other span claims.
ROOT = "bench"

#: A span as written to ``perfbench/out/``: (layer, start_ns, end_ns,
#: index of the parent span, -1 for the root).
Span = Tuple[str, int, int, int]

#: Defining module (by prefix) -> layer charged for a callback.
MODULE_LAYERS = {
    "repro.net.network": "net.network",
    "repro.net.host": "net.host",
    "repro.net.timers": "net.host",
    "repro.core.notification": "core.notification",
    "repro.core.listening": "core.listening",
    "repro.server.authoritative": "server.auth",
    "repro.server.resolver": "server.resolver",
    "repro.server.cache": "server.resolver",
    "repro.zone": "zone",
}

#: (module, class, attribute, layer, call counter or None, kind).  Kind
#: ``call`` times the callable; the other kinds also (or only) wrap the
#: callbacks it is handed.
PATCHES = (
    ("repro.dnslib", "Message", "from_wire", "dnslib.decode",
     "dnslib.decode_calls", "call"),
    ("repro.dnslib", "Message", "to_wire", "dnslib.encode",
     "dnslib.encode_calls", "call"),
    ("repro.dnslib", "WireTemplate", "with_id", "dnslib.encode",
     "dnslib.template_patches", "call"),
    ("repro.net", "Simulator", "run", "net.simulator", None, "call"),
    ("repro.net", "Simulator", "run_until", "net.simulator", None, "call"),
    ("repro.net", "Simulator", "schedule_at", "net.simulator",
     "net.simulator.schedule_calls", "schedule_at"),
    ("repro.net", "Network", "send", "net.network", None, "call"),
    ("repro.net", "Network", "bind", None, None, "bind"),
    ("repro.net", "Socket", "send", "net.host", None, "call"),
    ("repro.net", "Socket", "request", "net.host",
     "net.host.request_calls", "request"),
    ("repro.net", "Socket", "on_receive", None, None, "on_receive"),
    ("repro.core", "LeaseTable", "grant", "core.lease.grant",
     "core.lease.grant_calls", "call"),
    ("repro.core", "LeaseTable", "holders", "core.lease.holders", None,
     "call"),
    ("repro.core", "ArrayLeaseTable", "grant", "core.lease.grant",
     "core.lease.grant_calls", "call"),
    ("repro.core", "ArrayLeaseTable", "holders", "core.lease.holders",
     None, "call"),
    ("repro.core", "NotificationModule", "on_change", "core.notification",
     None, "call"),
    ("repro.core", "ListeningModule", "on_query", "core.listening", None,
     "call"),
    ("repro.server", "AuthoritativeServer", "handle_query", "server.auth",
     None, "call"),
    ("repro.server", "RecursiveResolver", "resolve", "server.resolver",
     None, "call"),
    ("repro.zone", "Zone", "replace_address", "zone", None, "call"),
    ("repro.obs", "TraceBus", "emit", "obs.trace", None, "call"),
    ("repro.obs", "WireCapture", "record", "obs.capture", None, "call"),
    ("repro.obs", "LoadLedger", "record", "obs.load", None, "call"),
    ("repro.obs", "LoadRecorder", "record", "obs.load", None, "call"),
    ("repro.sim", "ColumnarTrace", "from_events", "sim.from_events", None,
     "call"),
)


class Tracer:
    """One span stack plus the per-iteration aggregates.

    Only the aggregates (self time per layer, calls per counter) are
    kept for every traced iteration; the full span list is kept when
    :meth:`begin` is told to, for the one iteration that is written out.
    """

    def __init__(self) -> None:
        self.active = False
        #: Layer -> nanoseconds of self time, this iteration.
        self.self_ns: Dict[str, int] = collections.defaultdict(int)
        #: Counter name -> calls, this iteration.
        self.calls: Dict[str, int] = collections.defaultdict(int)
        self.peak_pending = 0
        self.spans: Optional[List[Optional[Span]]] = None
        #: Open spans, innermost last: [nanoseconds covered by children,
        #: start, index in ``spans`` or -1].
        self._stack: List[List[int]] = []
        self._saved: List[Tuple[type, str, object]] = []
        self._module_layer: Dict[str, str] = {}

    # -- spans ---------------------------------------------------------------

    def _timed(self, fn: Callable, layer: str,
               counter: Optional[str]) -> Callable:
        """``fn`` with a span of ``layer`` around every call.

        The hot path of a traced run, so the span bookkeeping is inline:
        the dicts and the stack are the tracer's own objects, cleared in
        place by :meth:`begin`, never rebound.
        """
        tracer, stack = self, self._stack
        self_ns, calls = self.self_ns, self.calls

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                calls[counter] += 1
            spans = tracer.spans
            index = -1
            if spans is not None:
                index = len(spans)
                spans.append(None)
            frame = [0, perf_counter_ns(), index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                self_ns[layer] += duration - frame[0]
                parent = stack[-1]
                parent[0] += duration
                if index >= 0:
                    spans[index] = (layer, frame[1], end, parent[2])

        return wrapper

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` under a span of ``layer``: for the
        calls the benchmark itself makes into a layer."""
        return self._timed(fn, layer, None)(*args, **kwargs)

    def begin(self, keep_spans: bool) -> None:
        """Open the root span of one traced iteration."""
        self.self_ns.clear()
        self.calls.clear()
        self.peak_pending = 0
        self.spans = [(ROOT, 0, 0, -1)] if keep_spans else None
        self.active = True
        self._stack.append([0, perf_counter_ns(), 0 if keep_spans else -1])

    def end(self) -> int:
        """Close the root span; returns its duration in nanoseconds."""
        end = perf_counter_ns()
        self.active = False
        children, start, index = self._stack.pop()
        if self._stack:
            raise RuntimeError("unbalanced spans at end of iteration")
        self.self_ns[ROOT] += end - start - children
        if index >= 0:
            self.spans[0] = (ROOT, start, end, -1)
        return end - start

    # -- wrappers ------------------------------------------------------------

    def _callback(self, fn: Optional[Callable]) -> Optional[Callable]:
        """``fn`` timed under the layer of the module that defined it."""
        if fn is None:
            return None
        module = getattr(fn, "__module__", None) or ""
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = next(
                (layer for prefix, layer in MODULE_LAYERS.items()
                 if module.startswith(prefix)), ROOT)
        return self._timed(fn, layer, None)

    def _wrap(self, fn: Callable, layer: Optional[str],
              counter: Optional[str], kind: str) -> Callable:
        tracer = self
        if kind == "call":
            return self._timed(fn, layer, counter)
        if kind == "bind":
            def bind(self, endpoint, handler):
                return fn(self, endpoint, tracer._callback(handler))
            return bind
        if kind == "on_receive":
            def on_receive(self, handler):
                return fn(self, tracer._callback(handler))
            return on_receive
        if kind == "schedule_at":
            timed = self._timed(fn, layer, counter)

            def schedule_at(self, time, callback, daemon=False):
                handle = timed(self, time, tracer._callback(callback),
                               daemon=daemon)
                if self.pending > tracer.peak_pending:
                    tracer.peak_pending = self.pending
                return handle
            return schedule_at
        if kind == "request":
            timed = self._timed(fn, layer, counter)

            def request(self, payload, dst, match_id, handler, retry=None,
                        on_attempt=None):
                return timed(self, payload, dst, match_id,
                             tracer._callback(handler), retry=retry,
                             on_attempt=tracer._callback(on_attempt))
            return request
        raise ValueError(f"unknown patch kind: {kind!r}")

    def install(self) -> None:
        """Swap the wrappers in; call before building the traced world."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, owner, attr, layer, counter, kind in PATCHES:
            cls = getattr(importlib.import_module(module), owner, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(raw.__func__, layer, counter, kind))
            else:
                wrapped = self._wrap(raw, layer, counter, kind)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original callable."""
        for cls, attr, raw in reversed(self._saved):
            setattr(cls, attr, raw)
        self._saved.clear()
