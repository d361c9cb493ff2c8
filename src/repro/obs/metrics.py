"""The metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`Registry` per run replaces reading half a dozen scattered
stats dataclasses: every instrumented component either maintains its own
instruments (histograms of ack RTT, consistency window, lease length) or
is mirrored into the registry through *callable gauges* that read the
component's existing counters at snapshot time — the stats dataclasses
stay authoritative for tests, and :meth:`Registry.snapshot` is the one
machine-readable view of everything.

Metric names are a stable contract documented in PROTOCOL.md §9.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from typing import (Callable, Dict, List, Optional, Sequence, TextIO, Tuple,
                    Union)

from .trace import opened


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter decrement: {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value: either set explicitly or read from ``fn``."""

    __slots__ = ("name", "_value", "fn")

    def __init__(self, name: str,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        """Pin the gauge to ``value`` (only for gauges without ``fn``)."""
        if self.fn is not None:
            raise ValueError(f"gauge {self.name} is callable-backed")
        self._value = value

    @property
    def value(self) -> float:
        """Current reading."""
        return float(self.fn()) if self.fn is not None else self._value


#: Default histogram buckets for round-trip / window measurements, seconds.
LATENCY_BUCKETS = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
                   0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0)

#: Default histogram buckets for lease lengths, seconds (200 s and 6000 s
#: are the paper's CDN/Dyn maxima; 518400 s is the 6-day regular maximum).
LEASE_BUCKETS = (60.0, 200.0, 600.0, 3600.0, 6000.0, 21600.0,
                 86400.0, 259200.0, 518400.0)


def _fold_exact(partials: List[float], value: float) -> None:
    """Fold ``value`` into a Shewchuk non-overlapping partials list.

    After the fold the partials still represent the true sum exactly,
    so ``math.fsum(partials)`` is the correctly rounded total no matter
    how many folds happened or in what grouping — the property that
    makes shard-merged histogram sums byte-identical at any shard
    count.  (Same algorithm as ``repro.sim.fastreplay.ExactSum``;
    re-implemented here because ``obs`` must not import ``sim``.)
    """
    x = value
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class Histogram:
    """Fixed-bucket histogram with exact sum/count/min/max.

    ``buckets`` are inclusive upper bounds; an implicit +inf bucket
    catches the overflow.  The mean is exact (running float sum in
    observation order), which is what lets trace-derived recomputations
    match live measurements bit for bit.

    Two populations exist: histograms filled one :meth:`observe` at a
    time keep the running-float ``sum`` above (order-dependent, bit-
    compatible with the trace-side recomputations); histograms filled
    in bulk via :meth:`add_exact` carry Shewchuk partials so
    :meth:`merge` stays exact and grouping-independent.  Merging an
    observe-filled histogram degrades the target to running-float
    addition (the honest answer — the inputs were already rounded).
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max",
                 "_partials")

    def __init__(self, name: str,
                 buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        # An all-float tuple is kept as it is, so the histograms built
        # over one module constant (the load ledger makes three per
        # server) share it instead of each holding a copy.
        bounds = tuple(buckets)
        if set(map(type, bounds)) - {float}:
            bounds = tuple(float(b) for b in bounds)
        if not all(map(operator.lt, bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must strictly increase: "
                             f"{buckets}")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Non-overlapping partials representing ``sum`` exactly while
        #: the histogram has only ever been filled through
        #: :meth:`add_exact`/:meth:`merge`; None once :meth:`observe`
        #: put it on the running-float path.
        self._partials: Optional[List[float]] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        # First bound >= value — same bucket the linear scan over the
        # inclusive upper bounds found, in O(log buckets) on a hot path.
        index = bisect.bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        self._partials = None
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_exact(self, bucket_counts: Sequence[int],
                  partials: Sequence[float],
                  minimum: Optional[float] = None,
                  maximum: Optional[float] = None) -> None:
        """Bulk-load pre-bucketed observations with an exact sum.

        ``bucket_counts`` must cover every bucket including the +inf
        overflow; ``partials`` is a Shewchuk partials list representing
        the exact sum of the underlying values (e.g. from
        ``repro.sim.columnar.scan_partials``).  The histogram's sum
        stays the *correctly rounded* total as long as every load goes
        through this path, which makes shard-merged snapshots
        byte-identical regardless of shard count.
        """
        if len(bucket_counts) != len(self.counts):
            raise ValueError(
                f"bucket_counts has {len(bucket_counts)} entries, "
                f"histogram {self.name} has {len(self.counts)} buckets")
        added = 0
        for index, amount in enumerate(bucket_counts):
            self.counts[index] += amount
            added += amount
        self.count += added
        if self._partials is not None:
            for part in partials:
                _fold_exact(self._partials, part)
            self.sum = math.fsum(self._partials)
        else:
            self.sum += math.fsum(partials)
        if minimum is not None and minimum < self.min:
            self.min = minimum
        if maximum is not None and maximum > self.max:
            self.max = maximum

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bounds must agree).

        Counts and min/max merge losslessly.  Sums merge exactly —
        independent of merge order and grouping — when both sides are
        still on the exact path (built via :meth:`add_exact`); any
        observe-filled side degrades the result to float addition.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name} into {self.name}: "
                f"bucket bounds differ")
        for index, amount in enumerate(other.counts):
            self.counts[index] += amount
        self.count += other.count
        if self._partials is not None and other._partials is not None:
            for part in other._partials:
                _fold_exact(self._partials, part)
            self.sum = math.fsum(self._partials)
        else:
            self._partials = None
            self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> Optional[float]:
        """Exact mean of all observations, or None when empty."""
        return self.sum / self.count if self.count else None

    def quantile(self, quantile: float) -> Optional[float]:
        """Bucket-interpolated quantile estimate, or None when empty.

        ``quantile`` is in percent (50.0 = median).  The estimate walks
        the cumulative bucket counts to the target rank and
        interpolates linearly within the bucket it lands in, clamped to
        the observed ``[min, max]`` — the first bucket's lower edge is
        the observed minimum and the +inf overflow bucket is pinned to
        the observed maximum, so estimates never stray outside real
        data.  This is the one shared implementation behind
        ``repro.obs.report`` and the ``repro-obs tail`` follower.
        """
        if not self.count or not 0.0 <= quantile <= 100.0:
            return bucket_quantile(self.count, [], None, None, quantile)
        # The walk stops in the first non-empty bucket whose running
        # count reaches the target rank and reads nothing of the ones
        # before it but their total and the last bound, so find that
        # bucket at C speed and hand the walk everything before it as
        # one bucket: same estimate, bit for bit, at any bucket count.
        counts = self.counts
        running = list(itertools.accumulate(counts))
        index = bisect.bisect_left(running, quantile / 100.0 * self.count)
        while not counts[index]:
            index += 1
        bounds = (*self.bounds, math.inf)
        buckets = [(bounds[index], counts[index])]
        if index:
            buckets.insert(0, (bounds[index - 1], running[index - 1]))
        return bucket_quantile(self.count, buckets, self.min, self.max,
                               quantile)

    def as_dict(self) -> Dict[str, object]:
        """Snapshot form: summary stats plus per-bucket counts.

        Strictly JSON: the implicit +inf overflow bound serializes as
        ``null``, and so do non-finite summary stats (min/max/sum/mean
        after observing an infinity) — bare ``Infinity`` tokens are not
        JSON and break every strict parser downstream.
        """
        return {
            "count": self.count,
            "sum": _json_number(self.sum),
            "mean": _json_number(self.mean),
            "min": _json_number(self.min) if self.count else None,
            "max": _json_number(self.max) if self.count else None,
            "buckets": [[_json_number(bound), count] for bound, count
                        in zip((*self.bounds, math.inf), self.counts)],
        }


def bucket_quantile(count: int, buckets: Sequence[Tuple[float, int]],
                    low: Optional[float], high: Optional[float],
                    quantile: float) -> Optional[float]:
    """The shared fixed-bucket quantile estimator (percent scale).

    ``buckets`` is ``[(inclusive upper bound, count)]`` ending with the
    +inf overflow bucket; ``low``/``high`` are the observed min/max (or
    None when unknown).  Walks cumulative counts to the target rank,
    interpolates linearly inside the landing bucket, and clamps to the
    observed range: the first bucket's lower edge is the observed
    minimum (0 would bias small latencies) and the overflow bucket is
    pinned to the observed maximum.  None when empty.  Both
    :meth:`Histogram.quantile` and the snapshot-dict path in
    :func:`repro.obs.report.histogram_percentile` delegate here, so
    live and exported histograms estimate bucket-identically.
    """
    if not 0.0 <= quantile <= 100.0:
        raise ValueError(f"quantile out of range: {quantile}")
    if not count:
        return None
    target = quantile / 100.0 * count
    cumulative = 0
    estimate = high
    previous_bound = low if low is not None else 0.0
    for bound, bucket_count in buckets:
        upper = bound
        if math.isinf(upper):
            upper = high if high is not None else previous_bound
        if bucket_count and cumulative + bucket_count >= target:
            lower = min(previous_bound, upper)
            fraction = max(0.0, target - cumulative) / bucket_count
            estimate = lower + (upper - lower) * fraction
            break
        cumulative += bucket_count
        previous_bound = max(previous_bound, bound if not math.isinf(bound)
                             else previous_bound)
    if estimate is None:
        return None
    if low is not None:
        estimate = max(estimate, low)
    if high is not None:
        estimate = min(estimate, high)
    return estimate


def _json_number(value: Optional[float]) -> Optional[float]:
    """``value`` when finite, else None (JSON has no Infinity/NaN)."""
    return value if value is not None and math.isfinite(value) else None


class Registry:
    """A flat namespace of instruments with one consistent snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- creation (idempotent per name) --------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        self._check_free(name, self._counters)
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Get or create the gauge ``name``; ``fn`` makes it callable-backed."""
        self._check_free(name, self._gauges)
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, fn=fn)
        elif fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str,
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        """Get or create the histogram ``name``."""
        self._check_free(name, self._histograms)
        return self._histograms.setdefault(name, Histogram(name, buckets))

    def _check_free(self, name: str, own: Dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(f"metric name already used with a "
                                 f"different type: {name}")

    # -- merging -------------------------------------------------------------

    def merge(self, other: "Registry") -> "Registry":
        """Fold every instrument of ``other`` into this registry.

        Counters add their integer values; histograms bucket-add (and
        keep exactly rounded sums while both sides are on the
        :meth:`Histogram.add_exact` path); gauges are *last-write-wins*
        — the incoming reading replaces this side's value, so folding
        per-shard registries in shard order leaves each gauge at the
        last shard's reading (a gauge is a point-in-time level, not a
        flow; summing levels across shards double-counts).  A gauge
        that must aggregate across shards belongs in a counter or
        histogram instead.  Instruments missing on this side are
        created.  Merging is the shard-combination primitive: merging
        per-shard registries in any grouping yields byte-identical
        :meth:`export_json` output as long as the histograms were
        bulk-loaded exactly and gauges agree or only the final shard's
        level matters.  Returns ``self`` for chaining.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            target = self.gauge(name)
            if target.fn is not None:
                raise ValueError(
                    f"cannot merge into callable-backed gauge {name}")
            target.set(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(name, histogram.bounds).merge(histogram)
        return self

    # -- reading -------------------------------------------------------------

    def names(self) -> List[str]:
        """Every registered metric name, sorted."""
        return sorted([*self._counters, *self._gauges, *self._histograms])

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """One consistent, JSON-ready view of every instrument.

        Keys at both levels are sorted, so identical runs serialize to
        byte-identical JSON.
        """
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].as_dict()
                           for name in sorted(self._histograms)},
        }

    def export_json(self, target: Union[str, TextIO]) -> None:
        """Write :meth:`snapshot` as stable, indented, *strict* JSON.

        ``allow_nan=False`` turns any non-finite value that slipped
        past the snapshot (e.g. a callable gauge reading inf) into a
        loud :class:`ValueError` instead of silently emitting the
        non-JSON ``Infinity`` token.  ``sort_keys=True`` makes the
        bytes independent of dict insertion order end to end — two
        registries with the same instrument values export identically
        no matter what order registration or merging happened in.
        """
        with opened(target, "w") as stream:
            json.dump(self.snapshot(), stream, indent=2, allow_nan=False,
                      sort_keys=True)
            stream.write("\n")

    def __repr__(self) -> str:
        return (f"Registry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})")
