"""Trace-contract rules: the event-name schema holds in both directions.

PROTOCOL.md §9 pins the trace schema as the frozen registry
``repro.obs.trace.EVENT_NAMES``.  Runtime code already validates loaded
traces against it (``repro-obs --strict``); these rules keep the *source
tree* in agreement with the registry so schema drift is caught before a
single run happens:

* ``DCUP003`` — every literal (or registry-constant) event name passed
  to a ``TraceBus.emit`` call must be a registry member, and the call
  must pass exactly that event's ``EVENT_FIELDS`` as positional
  arguments after ``t`` — a positional record has no keywords to say
  which value is which, so a dropped or extra argument would silently
  shift every later field;
* ``DCUP004`` — every registry member must be emitted somewhere in the
  scanned tree (a name nobody emits is a dead schema entry, usually a
  renamed event whose emitter kept the old spelling).

``DCUP004`` is a cross-file check: it only fires when the scan included
the file that defines ``EVENT_NAMES``, so linting a single module never
claims the whole contract is unemitted.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..obs import trace as trace_module
from ..obs.trace import EVENT_FIELDS, EVENT_NAMES
from .findings import Finding
from .linter import ModuleInfo, ProjectContext, Rule, terminal_name

#: Receiver spellings treated as a TraceBus: ``self.trace.emit(...)``,
#: ``trace.emit(...)``, ``bus.emit(...)``, ``obs.trace.emit(...)``.
_BUS_TERMINALS = ("trace", "bus")


def _is_bus_emit(call: ast.Call) -> bool:
    """True when ``call`` looks like a TraceBus.emit invocation."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr != "emit":
        return False
    term = terminal_name(func.value)
    if term is None:
        return False
    norm = term.lower().lstrip("_")
    return any(norm == t or norm.endswith(t) for t in _BUS_TERMINALS)


def _event_argument(call: ast.Call) -> Optional[ast.expr]:
    """The expression supplying the event name, if present."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "event":
            return keyword.value
    return None


def _resolve_event_name(arg: ast.expr) -> Optional[str]:
    """The event-name string an emit argument denotes, if knowable.

    Literals resolve to themselves; bare names and attributes resolve
    through the live registry module (``LEASE_GRANT`` ->
    ``"lease.grant"``), which also covers re-exports like
    ``repro.obs.LEASE_GRANT``.  Anything dynamic resolves to None and
    is left to the runtime validator.
    """
    if isinstance(arg, ast.Constant):
        return arg.value if isinstance(arg.value, str) else None
    ident = terminal_name(arg)
    if ident is None:
        return None
    value = getattr(trace_module, ident, None)
    return value if isinstance(value, str) else None


def _arity_problem(call: ast.Call, event: str) -> Optional[str]:
    """How this emit's arguments miss ``EVENT_FIELDS[event]``, if they
    do.  ``*args`` / ``**kwargs`` are dynamic: the runtime's job."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) \
            or any(keyword.arg is None for keyword in call.keywords):
        return None
    keywords = {keyword.arg for keyword in call.keywords}
    named = sorted(keywords - {"event", "t"})
    if named:
        return (f"passes {', '.join(named)} by keyword: fields are "
                f"positional, in EVENT_FIELDS order")
    # Positional arguments: the event name (unless by keyword), then
    # ``t`` (unless by keyword), then the fields.
    passed = len(call.args) - len({"event", "t"} - keywords)
    schema = EVENT_FIELDS[event]
    if passed == len(schema):
        return None
    return (f"passes {max(passed, 0)} field(s) after t but {event!r} has "
            f"{len(schema)} ({', '.join(schema)})")


class TraceEmitNameRule(Rule):
    """DCUP003: emitted event names and field counts fit the registry."""

    code = "DCUP003"
    name = "trace-contract-unknown-event"
    summary = ("every literal event name passed to TraceBus.emit must be "
               "a key of repro.obs.trace.EVENT_FIELDS, followed by t and "
               "exactly that event's fields, positionally")

    def check(self, module: ModuleInfo,
              ctx: ProjectContext) -> Iterator[Finding]:
        # Anchor the registry-coverage check (DCUP004) on the defining
        # file so a partial scan skips it; done here because both trace
        # rules share one walk-worthy concern: the schema.
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "EVENT_NAMES"
                    for t in node.targets):
                ctx.registry_sites.append((module.display, node.lineno))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not _is_bus_emit(node):
                continue
            arg = _event_argument(node)
            if arg is None:
                continue
            resolved = _resolve_event_name(arg)
            if resolved is None:
                continue  # dynamic name: the runtime validator's job
            if resolved not in EVENT_FIELDS:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"event name {resolved!r} is not in the PROTOCOL.md "
                    f"§9 registry (repro.obs.trace.EVENT_NAMES): add it "
                    f"to the registry or fix the spelling")
                continue
            ctx.record_emit(resolved, module.display, node.lineno)
            problem = _arity_problem(node, resolved)
            if problem is not None:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"emit of {resolved!r} {problem} (PROTOCOL.md §9)")


class RegistryCoverageRule(Rule):
    """DCUP004: every registry event name must have an emitter."""

    code = "DCUP004"
    name = "trace-contract-unemitted-event"
    summary = ("every member of EVENT_NAMES must be emitted somewhere in "
               "the scanned tree (dead schema entries are drift)")
    scope = "cross-file; runs when the scan includes the registry"

    def finalize(self, ctx: ProjectContext) -> Iterator[Finding]:
        if not ctx.registry_sites:
            return
        display, line = ctx.registry_sites[0]
        for name in sorted(EVENT_NAMES - set(ctx.emitted)):
            yield self.finding(
                display, line, 0,
                f"registry event {name!r} is never emitted in the "
                f"scanned tree: remove the dead entry or restore its "
                f"emitter")
