"""The trace-driven lease simulation (paper §5.1).

Replays a query trace through per-(domain, nameserver) lease state and
counts what actually happens:

* a query arriving while the pair's lease is valid is absorbed locally
  (the authoritative server has promised notifications — no upstream
  message, no staleness risk);
* a query arriving with no valid lease goes upstream (one message) and
  the scheme decides whether to grant a fresh lease and how long.

The schemes compared are the paper's (§5.1.2):

* **fixed** — every upstream query gets the same lease length (capped
  by the record's category maximum);
* **dynamic** — the maximal lease, but only for pairs whose measured
  query rate clears a threshold; sweeping the threshold traces the
  whole storage/communication curve (it is the dual variable of the
  SLP storage budget);
* **none** — pure polling; the 100 %-query-rate baseline.

Lease selection is *offline*, "done off-line based on the trace
analyses" (§5.1.2): pair rates come from a training prefix of the trace
(the paper uses the first day of seven).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..dnslib import Name
from ..obs.trace import LEASE_EXPIRE, LEASE_GRANT, TraceBus
from ..traces.domains import DomainSpec
from ..traces.workload import QueryEvent, measured_rates
from .metrics import LeaseSimResult

#: A pair is (domain name, nameserver index) — record × cache.
Pair = Tuple[Name, int]

#: Scheme hook: (pair, trained rate, max lease) -> lease length (0 = none).
LeaseFn = Callable[[Pair, float, float], float]


@dataclasses.dataclass
class TraceSimConfig:
    """Configuration knobs with paper-faithful defaults."""
    duration: float
    #: Fraction of the trace (by time) used to train pair rates.
    training_fraction: float = 1.0 / 7.0


def fixed_lease_fn(lease_length: float) -> LeaseFn:
    """A scheme granting the same lease to every pair."""
    def decide(pair: Pair, rate: float, max_lease: float) -> float:
        return min(lease_length, max_lease)
    return decide


def dynamic_lease_fn(rate_threshold: float) -> LeaseFn:
    """A scheme granting maximal leases above a rate threshold."""
    def decide(pair: Pair, rate: float, max_lease: float) -> float:
        return max_lease if rate >= rate_threshold else 0.0
    return decide


def no_lease_fn() -> LeaseFn:
    """The pure-polling (no lease) scheme."""
    def decide(pair: Pair, rate: float, max_lease: float) -> float:
        return 0.0
    return decide


def train_pair_rates(events: Sequence[QueryEvent],
                     training_window: float) -> Dict[Pair, float]:
    """λ_ij from the training prefix (the paper's first-day analysis)."""
    training = [e for e in events if e.time < training_window]
    return measured_rates(training, training_window, by="name-nameserver")


def simulate_lease_trace(events: Sequence[QueryEvent],
                         pair_rates: Dict[Pair, float],
                         max_lease_of: Callable[[Name], float],
                         lease_fn: LeaseFn,
                         duration: float,
                         scheme: str = "custom",
                         parameter: float = 0.0,
                         trace: Optional[TraceBus] = None) -> LeaseSimResult:
    """Replay ``events`` under one lease scheme; see module docstring.

    This is the *reference oracle*: one full pass over the trace per
    call.  Sweeps should use :mod:`repro.sim.fastreplay` (the default
    engine of :func:`figure5_curves`), which is held bit-identical to
    this function by a property test.  ``lease_seconds`` is an exactly
    rounded sum (``math.fsum``) so that identity is independent of the
    order either engine visits the grants in.

    ``trace`` (optional) receives the lease lifecycle as ``lease.grant``
    / ``lease.expire`` events — the cache is ``ns<index>``, expiries are
    recorded lazily when a later query observes them (stamps can trail
    in time; trace order is the causal order, as with the live table's
    lazy sweep).  The default ``None`` keeps the hot loop
    allocation-free.
    """
    lease_expiry: Dict[Pair, float] = {}
    upstream = 0
    grants = 0
    lease_terms: List[float] = []
    total = 0
    pairs_seen = set()
    for event in events:
        pair = (event.name, event.nameserver)
        pairs_seen.add(pair)
        total += 1
        expiry = lease_expiry.get(pair)
        if expiry is not None and event.time < expiry:
            continue  # absorbed by a valid lease
        if trace is not None and expiry is not None:
            trace.emit(LEASE_EXPIRE, expiry, f"ns{event.nameserver}",
                       str(event.name), "A")
            # Dropping the stale entry is behaviour-neutral: a missing
            # entry and an expired one both send the query upstream.
            del lease_expiry[pair]
        upstream += 1
        rate = pair_rates.get(pair, 0.0)
        length = lease_fn(pair, rate, max_lease_of(event.name))
        if length > 0:
            grants += 1
            end = min(event.time + length, duration)
            lease_terms.append(max(0.0, end - event.time))
            lease_expiry[pair] = event.time + length
            if trace is not None:
                trace.emit(LEASE_GRANT, event.time, f"ns{event.nameserver}",
                           str(event.name), "A", length)
    return LeaseSimResult(
        scheme=scheme, parameter=parameter, total_queries=total,
        upstream_messages=upstream, grants=grants,
        lease_seconds=math.fsum(lease_terms), pair_count=len(pairs_seen),
        duration=duration)


@dataclasses.dataclass
class Figure5Curves:
    """Both schemes' operating points, ready to print/plot."""

    fixed: List[LeaseSimResult]
    dynamic: List[LeaseSimResult]
    polling: LeaseSimResult

    def fixed_points(self) -> List[Tuple[float, float]]:
        """(storage %, query rate %) points of the fixed curve."""
        return [r.as_point() for r in self.fixed]

    def dynamic_points(self) -> List[Tuple[float, float]]:
        """(storage %, query rate %) points of the dynamic curve."""
        return [r.as_point() for r in self.dynamic]


def default_max_lease_of(domains: Sequence[DomainSpec]) -> Callable[[Name], float]:
    """Per-domain maxima per §5.1: regular 6 d, CDN 200 s, Dyn 6000 s."""
    from ..core.policy import MAX_LEASE_CDN, MAX_LEASE_DYN, MAX_LEASE_REGULAR
    limits = {"regular": float(MAX_LEASE_REGULAR), "cdn": float(MAX_LEASE_CDN),
              "dyn": float(MAX_LEASE_DYN)}
    table = {domain.name: limits[domain.category] for domain in domains}

    def max_lease_of(name: Name) -> float:
        return table.get(name, float(MAX_LEASE_REGULAR))

    return max_lease_of


def figure5_curves(events: Sequence[QueryEvent],
                   domains: Sequence[DomainSpec],
                   duration: float,
                   fixed_lengths: Sequence[float],
                   rate_thresholds: Sequence[float],
                   training_fraction: float = 1.0 / 7.0,
                   engine: str = "fast") -> Figure5Curves:
    """Run the full Figure 5 comparison on one trace.

    ``engine="fast"`` (the default) groups the trace once into the
    pair index and evaluates every sweep point from it —
    O(trace + sweep × pairs) instead of the reference engine's
    O(sweep × trace) — producing bit-identical results;
    ``engine="columnar"`` goes further and replays each sweep point as
    vectorized column sweeps over a CSR trace (the million-cache
    engine of :mod:`repro.sim.columnar`, same bit-identity contract);
    pass ``engine="reference"`` to run the per-point oracle instead.
    """
    events = sorted(events, key=lambda e: e.time)
    rates = train_pair_rates(events, duration * training_fraction)
    max_lease_of = default_max_lease_of(domains)
    if engine == "columnar":
        from .columnar import (
            ColumnarTrace, columnar_dynamic_sweep, columnar_lease_replay,
            columnar_polling)
        ctrace = ColumnarTrace.from_events(events)
        rate_column = ctrace.rate_column(rates)
        lease_column = ctrace.max_lease_column(max_lease_of)
        fixed = [
            columnar_lease_replay(ctrace, rate_column, lease_column,
                                  fixed_lease_fn(length), duration,
                                  scheme="fixed", parameter=length)
            for length in fixed_lengths]
        dynamic = columnar_dynamic_sweep(ctrace, rate_column, lease_column,
                                         rate_thresholds, duration)
        polling = columnar_polling(ctrace, duration)
    elif engine == "fast":
        from .fastreplay import (
            PairIndex, fast_dynamic_sweep, fast_lease_replay, fast_polling)
        index = PairIndex(events)
        fixed = [
            fast_lease_replay(index, rates, max_lease_of,
                              fixed_lease_fn(length), duration,
                              scheme="fixed", parameter=length)
            for length in fixed_lengths]
        dynamic = fast_dynamic_sweep(index, rates, max_lease_of,
                                     rate_thresholds, duration)
        polling = fast_polling(index, duration)
    elif engine == "reference":
        fixed = [
            simulate_lease_trace(events, rates, max_lease_of,
                                 fixed_lease_fn(length), duration,
                                 scheme="fixed", parameter=length)
            for length in fixed_lengths]
        dynamic = [
            simulate_lease_trace(events, rates, max_lease_of,
                                 dynamic_lease_fn(threshold), duration,
                                 scheme="dynamic", parameter=threshold)
            for threshold in rate_thresholds]
        polling = simulate_lease_trace(events, rates, max_lease_of,
                                       no_lease_fn(), duration, scheme="none")
    else:
        raise ValueError(f"unknown engine: {engine!r}")
    return Figure5Curves(fixed=fixed, dynamic=dynamic, polling=polling)


def logspace(low: float, high: float, count: int) -> List[float]:
    """Log-spaced sweep values (both figures use log-scale sweeps)."""
    if low <= 0 or high <= low or count < 2:
        raise ValueError("want 0 < low < high and count >= 2")
    step = (math.log(high) - math.log(low)) / (count - 1)
    return [math.exp(math.log(low) + i * step) for i in range(count)]
