"""Deriving the evaluation's headline numbers from a raw event trace.

The paper's quantities — ack round-trip time, consistency window,
lease-churn counts, datagram fates — are all recomputable from the
structured trace alone, with no access to the live components' counters.
:func:`summarize_events` is that recomputation; the observability tests
and benches assert it reproduces the live registry's numbers *exactly*
(same float additions in the same order), which is what makes the trace
a trustworthy substitute for bespoke end-of-run counters.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import (
    CHANGE_DETECTED,
    EVENT_FIELDS,
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
    TRACE_META,
    TraceEvent,
    fields_dict,
)


_RTT = EVENT_FIELDS[NOTIFY_ACK].index("rtt")


def _running_stats(values: Iterable[float]) -> Dict[str, Optional[float]]:
    """count/sum/mean/min/max with the sum taken in iteration order."""
    count = 0
    total = 0.0
    low = math.inf
    high = -math.inf
    for value in values:
        count += 1
        total += value
        if value < low:
            low = value
        if value > high:
            high = value
    return {
        "count": count,
        "sum": total,
        "mean": total / count if count else None,
        "min": low if count else None,
        "max": high if count else None,
    }


def consistency_windows(events: Sequence[TraceEvent]
                        ) -> List[Tuple[int, float]]:
    """Per-change consistency windows recomputed from raw events.

    For each ``change.detected`` carrying a correlation ``seq``, the
    window is the time from detection until the *last* acknowledgement
    for that change — i.e. when every lease holder is consistent again.
    Changes with no acknowledged notification have no window (they fell
    back to TTL expiry, DNScup's graceful degradation).

    Returns ``(seq, window)`` pairs ordered by the moment the change
    *settled* (last ack or timeout), which is the order the live
    :class:`~repro.obs.metrics.Histogram` observed them in — so sums and
    means match the registry bit for bit.
    """
    detected: Dict[int, float] = {}
    last_ack: Dict[int, float] = {}
    settled_at: Dict[int, float] = {}
    for t, name, fields in events:
        # All three records open with ``seq`` (None: not correlated).
        if name == CHANGE_DETECTED and fields[0] is not None:
            detected[fields[0]] = t
        elif name == NOTIFY_ACK and fields[0] is not None:
            last_ack[fields[0]] = settled_at[fields[0]] = t
        elif name == NOTIFY_TIMEOUT and fields[0] is not None:
            settled_at[fields[0]] = t
    windows = [(seq, last_ack[seq] - detected[seq])
               for seq in detected if seq in last_ack]
    windows.sort(key=lambda item: (settled_at[item[0]], item[0]))
    return windows


def summarize_events(events: Sequence[TraceEvent]) -> Dict[str, object]:
    """The full derived summary of one trace.

    Keys (a stable contract, mirrored by ``repro-obs summarize --json``):

    * ``events`` — event-name -> count;
    * ``span`` — first/last timestamp;
    * ``notify`` — sends/retransmits/acks/timeouts plus ``ack_rtt``
      running stats over the ``rtt`` field of every ack, in trace order;
    * ``changes`` — detected count plus ``consistency_window`` running
      stats from :func:`consistency_windows`;
    * ``lease`` — grant/renew/expire/revoke counts;
    * ``net`` — delivered/dropped/duplicated/unreachable counts;
    * ``bus`` — the exporting bus's own bookkeeping
      (emitted/retained/dropped/cleared) when the trace carries a
      :data:`~repro.obs.trace.TRACE_META` record, else None.  A nonzero
      ``dropped`` flags ring overflow — an incomplete trace; a nonzero
      ``cleared`` records deliberate discards.
    """
    bus: Optional[Dict[str, object]] = None
    if any(name == TRACE_META for _t, name, _f in events):
        bus = next(fields_dict(ev) for ev in events if ev[1] == TRACE_META)
        events = [ev for ev in events if ev[1] != TRACE_META]
    counts: Dict[str, int] = {}
    for _t, name, _fields in events:
        counts[name] = counts.get(name, 0) + 1

    ack_rtts = [float(fields[_RTT]) for _t, name, fields in events
                if name == NOTIFY_ACK and fields[_RTT] is not None]
    windows = [window for _seq, window in consistency_windows(events)]

    return {
        "events": dict(sorted(counts.items())),
        "span": {
            "first": events[0][0] if events else None,
            "last": events[-1][0] if events else None,
            "count": len(events),
        },
        "notify": {
            "sends": counts.get(NOTIFY_SEND, 0),
            "retransmits": counts.get(NOTIFY_RETRANSMIT, 0),
            "acks": counts.get(NOTIFY_ACK, 0),
            "timeouts": counts.get(NOTIFY_TIMEOUT, 0),
            "ack_rtt": _running_stats(ack_rtts),
        },
        "changes": {
            "detected": counts.get(CHANGE_DETECTED, 0),
            "settled_with_ack": len(windows),
            "consistency_window": _running_stats(windows),
        },
        "lease": {
            "grants": counts.get(LEASE_GRANT, 0),
            "renewals": counts.get(LEASE_RENEW, 0),
            "expirations": counts.get(LEASE_EXPIRE, 0),
            "revocations": counts.get(LEASE_REVOKE, 0),
        },
        "net": {
            "delivered": counts.get(NET_DELIVER, 0),
            "dropped": counts.get(NET_DROP, 0),
            "duplicated": counts.get(NET_DUPLICATE, 0),
            "unreachable": counts.get(NET_UNREACHABLE, 0),
        },
        "bus": bus,
    }


def flatten_summary(summary: Dict[str, object],
                    prefix: str = "") -> Dict[str, object]:
    """Flatten a nested summary into dotted scalar keys (for diffing)."""
    flat: Dict[str, object] = {}
    for key, value in summary.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_summary(value, prefix=f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def diff_summaries(a: Dict[str, object], b: Dict[str, object]
                   ) -> List[Tuple[str, object, object]]:
    """(key, value in a, value in b) for every key where they differ."""
    flat_a = flatten_summary(a)
    flat_b = flatten_summary(b)
    rows: List[Tuple[str, object, object]] = []
    for key in sorted(set(flat_a) | set(flat_b)):
        left = flat_a.get(key)
        right = flat_b.get(key)
        if left != right:
            rows.append((key, left, right))
    return rows
