"""The declared lease-lifecycle state machine (PROTOCOL.md §10).

DNScup's lease protocol is a small FSM per (cache, RRset) pair: the
holder is *absent* until the server grants a lease, *granted* while the
lease is live (renewals re-enter the same state; expiry and
supersession drop back to absent), and *renegotiating* while a §5.1.2
rate renegotiation is in flight (every outcome — refresh, decline,
failure — returns to granted, because the old lease stays live until
its own timer runs out).

This module is the **normative declaration** of that machine: each
transition row names the protocol action, its source and destination
states, and the trace event the dispatch site emits
(:mod:`repro.obs.trace` registry names).  The ``repro-lint`` rule
``DCUP013`` (:mod:`repro.analysis.rules_fsm`) cross-checks this table
against the actual dispatch sites in :mod:`repro.core.lease` and
:mod:`repro.core.renegotiation`: a declared transition nobody dispatches, or a dispatched lease/renego
event nobody declared, is a finding — the table and the code cannot
drift apart silently.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

__all__ = [
    "LEASE_INITIAL",
    "LEASE_STATES",
    "LEASE_TRANSITIONS",
    "check_table",
    "reachable_states",
    "transition_events",
]

#: Per-(cache, RRset) lease lifecycle states.
LEASE_STATES = ("absent", "granted", "renegotiating")

#: Every pair starts with no lease.
LEASE_INITIAL = "absent"

#: ``(transition, source state, destination state, trace event)`` rows.
#: The trace event is the name the dispatch site emits — the runtime
#: footprint DCUP013 matches each row against.
LEASE_TRANSITIONS = (
    ("grant", "absent", "granted", "lease.grant"),
    ("renew", "granted", "granted", "lease.renew"),
    ("expire", "granted", "absent", "lease.expire"),
    ("supersede", "granted", "absent", "lease.revoke"),
    ("renegotiate", "granted", "renegotiating", "renego.send"),
    ("refresh", "renegotiating", "granted", "renego.refresh"),
    ("decline", "renegotiating", "granted", "renego.lost"),
    ("abort", "renegotiating", "granted", "renego.fail"),
)


def transition_events() -> FrozenSet[str]:
    """Every trace event the declared machine dispatches through."""
    return frozenset(row[3] for row in LEASE_TRANSITIONS)


def reachable_states(
        states: Tuple[str, ...] = LEASE_STATES,
        initial: str = LEASE_INITIAL,
        transitions: Tuple[Tuple[str, str, str, str], ...] = LEASE_TRANSITIONS,
) -> FrozenSet[str]:
    """States reachable from ``initial`` over the transition edges."""
    edges: Dict[str, Set[str]] = {}
    for _name, src, dst, _event in transitions:
        edges.setdefault(src, set()).add(dst)
    seen: Set[str] = set()
    frontier: List[str] = [initial] if initial in states else []
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        frontier.extend(edges.get(state, ()))
    return frozenset(seen)


def check_table(
        states: Tuple[str, ...] = LEASE_STATES,
        initial: str = LEASE_INITIAL,
        transitions: Tuple[Tuple[str, str, str, str], ...] = LEASE_TRANSITIONS,
) -> List[str]:
    """Structural problems with a declared table, as human-oriented
    strings; the shipped table must check out empty (tested)."""
    problems: List[str] = []
    if initial not in states:
        problems.append(f"initial state {initial!r} not in LEASE_STATES")
    seen_names: Set[str] = set()
    for name, src, dst, event in transitions:
        if name in seen_names:
            problems.append(f"duplicate transition name {name!r}")
        seen_names.add(name)
        for role, state in (("source", src), ("destination", dst)):
            if state not in states:
                problems.append(
                    f"transition {name!r} has unknown {role} state "
                    f"{state!r}")
        if "." not in event:
            problems.append(
                f"transition {name!r} event {event!r} is not a dotted "
                f"trace-registry name")
    reachable = reachable_states(states, initial, transitions)
    for state in states:
        if state not in reachable:
            problems.append(f"state {state!r} is unreachable from "
                            f"{initial!r}")
    return problems
