"""The ``replay_sweep`` workload: the trace-driven lease simulator.

One Figure 5 sweep on each of two trace shapes per iteration.  The
simulator shares no code with the protocol stack, so this is the
control workload for every stack or observability change (prediction:
no movement) and the place where ``sim.fastreplay`` and
``sim.columnar`` are compared on the shape each was built for:

* *dense* — ``benchmarks/bench_perf_replay.py``'s week trace, about
  132k events on 1.4k pairs (~95 events a pair), swept at 26 operating
  points through ``figure5_curves`` with its default engine;
* *sparse* — a 20 000-cache flash crowd generated straight to columns,
  about 200k events on 57k pairs (~3.5 a pair), swept at 20 points
  through ``sharded_figure5_sweep`` on one shard.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.sim import (ColumnarTrace, Figure5Curves, dynamic_lease_fn,
                       figure5_curves, fixed_lease_fn, flash_crowd_columnar,
                       logspace, sharded_figure5_sweep, simulate_lease_trace,
                       train_pair_rates)
from repro.traces import (PopulationConfig, WorkloadConfig,
                          assign_global_zipf, generate_population,
                          generate_queries)

from tracer import Tracer

WEEK = 7 * 86400.0
DAY = 86400.0
DENSE_FIXED_POINTS = 12
DENSE_QUANTILES = (0.05, 0.2, 0.4, 0.6, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995,
                   0.999)
SPARSE_CACHES = 20_000
SPARSE_FIXED_POINTS = 10
SPARSE_QUANTILES = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)
#: The replica of the sparse shape small enough for the per-event oracle.
ORACLE_CACHES = 2_000


@dataclasses.dataclass
class SparseTrace:
    """A flash-crowd trace in columns with its sweep parameters."""

    trace: ColumnarTrace
    max_lease: np.ndarray
    rates: np.ndarray
    fixed_lengths: List[float]
    thresholds: List[float]

    @property
    def points(self) -> int:
        return len(self.fixed_lengths) + len(self.thresholds) + 1


def build_sparse(seed: int, caches: int) -> SparseTrace:
    """The ``bench_scale`` scenario shape at ``caches`` caches."""
    trace, max_lease = flash_crowd_columnar(
        caches=caches, regular_domains=caches // 5, duration=DAY,
        hot_domains=2, base_rate=2.0 / DAY, flash_rate=2.0 / (0.25 * DAY),
        cache_fanout=1, seed=seed)
    rates = trace.trained_rates(DAY / 7.0)
    positive = np.sort(rates[rates > 0.0])
    thresholds = ([0.0]
                  + [float(positive[int(q * (len(positive) - 1))])
                     for q in SPARSE_QUANTILES]
                  + [float(positive[-1]) * 2.0])
    return SparseTrace(trace, max_lease, rates,
                       logspace(10.0, 6 * DAY, SPARSE_FIXED_POINTS),
                       thresholds)


def sweep_sparse(sparse: SparseTrace):
    """(fixed, dynamic, polling) results of the one-shard columnar sweep."""
    return sharded_figure5_sweep(
        sparse.trace, sparse.rates, sparse.max_lease, sparse.fixed_lengths,
        sparse.thresholds, DAY, nshards=1)


def oracle_sweep(sparse: SparseTrace) -> Tuple[List, List, float]:
    """The same sweep through ``simulate_lease_trace``, point by point.

    Returns (fixed results, dynamic results, seconds spent replaying).
    """
    trace = sparse.trace
    events = trace.to_events()
    rate_map = {(trace.names[p], int(trace.nameservers[p])):
                float(sparse.rates[p]) for p in range(trace.pair_count)}
    lease_map = {trace.names[p]: float(sparse.max_lease[p])
                 for p in range(trace.pair_count)}
    started = perf_counter()
    fixed = [simulate_lease_trace(events, rate_map, lease_map.__getitem__,
                                  fixed_lease_fn(length), DAY,
                                  scheme="fixed", parameter=length)
             for length in sparse.fixed_lengths]
    dynamic = [simulate_lease_trace(events, rate_map, lease_map.__getitem__,
                                    dynamic_lease_fn(threshold), DAY,
                                    scheme="dynamic", parameter=threshold)
               for threshold in sparse.thresholds]
    return fixed, dynamic, perf_counter() - started


def disagreements(left: Sequence, right: Sequence) -> int:
    """Operating points at which two engines' results differ."""
    return (abs(len(left) - len(right))
            + sum(1 for a, b in zip(left, right) if a != b))


@dataclasses.dataclass
class ReplayWorld:
    seed: int
    events: list
    domains: list
    dense_fixed: List[float]
    dense_thresholds: List[float]
    sparse: SparseTrace
    generate_s: float
    dense_result: Figure5Curves = None
    sparse_result: tuple = None
    dense_s: float = 0.0
    sparse_s: float = 0.0

    @property
    def dense_ops(self) -> int:
        return len(self.events) * (len(self.dense_fixed)
                                   + len(self.dense_thresholds) + 1)

    @property
    def sparse_ops(self) -> int:
        return self.sparse.trace.total * self.sparse.points


class ReplayWorkload:
    name = "replay_sweep"

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def precheck(self, seed: int) -> List[str]:
        return []

    def build(self, seed: int) -> ReplayWorld:
        """Generate both traces and their sweep parameters.

        The domain population is the benches' constant one; the seed
        drives the week of client queries and the flash crowd's draws.
        Event counts move with the seed by a fraction of a percent
        (they are Poisson draws); the metric is a rate, so they cancel.
        """
        started = perf_counter()
        domains = assign_global_zipf(
            generate_population(PopulationConfig(
                regular_per_tld=40, cdn_count=30, dyn_count=30, seed=2006)),
            exponent=1.1, seed=99)
        config = WorkloadConfig(duration=WEEK, clients=150, nameservers=3,
                                total_request_rate=0.7,
                                client_cache_seconds=900.0, seed=seed)
        events = list(generate_queries(domains, config))
        sparse = build_sparse(seed, SPARSE_CACHES)
        generate_s = perf_counter() - started
        rates = sorted(train_pair_rates(events, WEEK / 7.0).values())
        thresholds = ([0.0]
                      + [rates[int(q * (len(rates) - 1))]
                         for q in DENSE_QUANTILES]
                      + [rates[-1] * 2.0])
        return ReplayWorld(seed, events, domains,
                           logspace(10.0, 6 * DAY, DENSE_FIXED_POINTS),
                           thresholds, sparse, generate_s)

    def _dense(self, world: ReplayWorld, **engine) -> Figure5Curves:
        return figure5_curves(world.events, world.domains, WEEK,
                              fixed_lengths=world.dense_fixed,
                              rate_thresholds=world.dense_thresholds,
                              **engine)

    def run(self, world: ReplayWorld) -> int:
        """The timed region; one operation is one replayed event
        (trace events x operating points)."""
        started = perf_counter()
        world.dense_result = self.tracer.call("sim.dense", self._dense, world)
        middle = perf_counter()
        world.sparse_result = self.tracer.call("sim.sparse", sweep_sparse,
                                               world.sparse)
        world.dense_s = middle - started
        world.sparse_s = perf_counter() - middle
        return world.dense_ops + world.sparse_ops

    def check(self, world: ReplayWorld, last: bool) -> Tuple[int, List[str]]:
        """Every iteration: the sweeps saw every event.  After the last
        one: the engines agree with their references point by point."""
        problems: List[str] = []
        failed = 0
        dense, (_fixed, _dynamic, polling) = (world.dense_result,
                                              world.sparse_result)
        if dense.polling.total_queries != len(world.events):
            problems.append("dense sweep did not replay the whole trace")
        if polling.total_queries != world.sparse.trace.total:
            problems.append("sparse sweep did not replay the whole trace")
        if last:
            columnar = self._dense(world, engine="columnar")
            wrong = (disagreements(dense.fixed, columnar.fixed)
                     + disagreements(dense.dynamic, columnar.dynamic)
                     + (dense.polling != columnar.polling))
            if wrong:
                problems.append(f"dense: default and columnar engines "
                                f"differ at {wrong} operating points")
            failed += wrong
            replica = build_sparse(world.seed, ORACLE_CACHES)
            fixed, dynamic, _polling = sweep_sparse(replica)
            want_fixed, want_dynamic, _seconds = oracle_sweep(replica)
            wrong = (disagreements(fixed, want_fixed)
                     + disagreements(dynamic, want_dynamic))
            if wrong:
                problems.append(f"sparse: columnar engine and oracle "
                                f"differ at {wrong} operating points")
            failed += wrong
        return failed, problems

    def counts(self, world: ReplayWorld) -> Dict[str, float]:
        return {
            "sim.dense.fast_events_per_s": world.dense_ops / world.dense_s,
            "sim.sparse.columnar_events_per_s":
                world.sparse_ops / world.sparse_s,
            "traces.generate_s": world.generate_s,
            "traces.events": len(world.events) + world.sparse.trace.total,
        }

    def extras(self, run, untraced_s: float) -> Dict[str, float]:
        """The engines the timed sweep does not use, on the same traces."""
        world, tracer = run.world, self.tracer
        tracer.install()
        try:
            tracer.begin(keep_spans=False)
            started = perf_counter()
            self._dense(world, engine="columnar")
            columnar_s = perf_counter() - started
            tracer.end()
        finally:
            tracer.uninstall()
        replica = build_sparse(run.seed, ORACLE_CACHES)
        _fixed, _dynamic, oracle_s = oracle_sweep(replica)
        oracle_rate = (replica.trace.total * (replica.points - 1)) / oracle_s
        fast_rate = world.dense_ops / world.dense_s
        return {
            "sim.dense.columnar_events_per_s": world.dense_ops / columnar_s,
            "sim.columnar.from_events_s":
                tracer.self_ns.get("sim.from_events", 0) / 1e9,
            "sim.oracle.events_per_s": oracle_rate,
            "sim.fast_vs_oracle_ratio": fast_rate / oracle_rate,
        }
