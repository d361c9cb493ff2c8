"""Zero-cost instrumentation rule: uninstrumented runs must stay free.

The observability layer's contract (DESIGN.md §8) is that every hook on
a hot path is ``None`` by default and every use is guarded by a plain
``is not None`` check, so no event object, f-string, or dict is ever
built unless a bus is attached.  An unguarded
``self.trace.emit(...)`` either crashes the uninstrumented run
(``None.emit``) or — worse, when the attribute defaults to a live bus —
taxes every benchmark.  ``DCUP005`` statically requires the guard for
every instrument call in the protocol engine and transport
(``core/``, ``net/``) plus the named telemetry files
(:data:`~repro.analysis.linter.ZERO_COST_FILES` — the auditor's
optional window histogram, the load ledger and the live telemetry
plane):

* ``*.trace.emit(...)`` / ``*bus.emit(...)``  — trace events,
* ``*capture.record(...)``                    — wire capture,
* ``*hist.observe(...)``                      — histograms,
* ``*counter.inc(...)``                       — counters,
* ``*ledger.record(...)``                     — load attribution.

A call is guarded when an enclosing ``if``/conditional-expression test
contains ``<receiver> is not None`` for the exact receiver expression
(``self.trace is not None and ...`` also qualifies).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .findings import Finding
from .linter import (
    ModuleInfo,
    ProjectContext,
    Rule,
    ZERO_COST_FILES,
    ZERO_COST_SCOPE,
    guarding_tests,
    terminal_name,
)


def _instrument_receiver(call: ast.Call) -> Optional[str]:
    """The receiver expression source if this is an instrument call."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    term = terminal_name(func.value)
    if term is None:
        return None
    norm = term.lower().lstrip("_")
    attr = func.attr
    instrumented = (
        (attr == "emit" and (norm in ("trace", "bus")
                             or norm.endswith("trace")
                             or norm.endswith("bus")))
        or (attr == "record" and (norm.endswith("capture")
                                  or norm.endswith("ledger")))
        or (attr == "observe" and (norm.endswith("hist")
                                   or norm.endswith("histogram")))
        or (attr == "inc" and norm.endswith("counter"))
    )
    return ast.unparse(func.value) if instrumented else None


class ZeroCostRule(Rule):
    """DCUP005: instrument calls in core/net need an is-not-None guard."""

    code = "DCUP005"
    name = "zero-cost-unguarded-instrumentation"
    summary = ("every trace/metrics/capture call in core/, net/ and the "
               "streaming telemetry files must sit under an "
               "'if <receiver> is not None' guard")
    scope = "repro/{core,net} + obs/{audit,load}.py"

    def check(self, module: ModuleInfo,
              ctx: ProjectContext) -> Iterator[Finding]:
        if not (module.in_subsystems(ZERO_COST_SCOPE)
                or module.is_file(ZERO_COST_FILES)):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            receiver = _instrument_receiver(node)
            if receiver is None:
                continue
            if receiver in guarding_tests(module, node):
                continue
            attr = node.func.attr  # type: ignore[attr-defined]
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"unguarded instrumentation call {receiver}.{attr}(...): "
                f"wrap it in 'if {receiver} is not None:' so "
                f"uninstrumented runs stay zero-cost")
