#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` re-runs the same workload with layer spans recorded from
this directory (see ``tracer.py``) and prints the per-layer metrics.
``ops_per_s`` and ``setup_s`` are in reference seconds (``hostspeed.py``);
the same medians in plain wall-clock seconds are logged beside them.
The last line of standard output is the JSON result; everything else
goes to standard error.  Exit code 2, and no result line, means the
benchmark could not run: ``src/repro`` is missing, the workload is
unknown, or a check failed before anything was measured.
``README.md`` beside this file defines every name printed here.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

WORKLOADS = ("storm_bare", "storm_observed", "resolve_mix", "replay_sweep")

#: Measured iterations a run makes at least, however short ``--seconds``.
MIN_ITERATIONS = 3

#: What the stderr line carrying the plain wall-clock medians starts with.
WALL_TAG = "wall-clock "

#: Span layer -> the per-layer metric its self time is printed under.
LAYER_METRICS = {
    "dnslib.decode": "dnslib.decode_self_s",
    "dnslib.encode": "dnslib.encode_self_s",
    "net.simulator": "net.simulator.self_s",
    "net.network": "net.network.send_self_s",
    "net.host": "net.host.self_s",
    "core.lease.grant": "core.lease.grant_self_s",
    "core.lease.holders": "core.lease.holders_self_s",
    "core.notification": "core.notification.on_change_self_s",
    "core.listening": "core.listening.self_s",
    "server.auth": "server.auth.self_s",
    "server.resolver": "server.resolver.self_s",
    "zone": "zone.update_self_s",
    "obs.trace": "obs.trace.self_s",
    "obs.capture": "obs.capture.self_s",
    "obs.load": "obs.load.self_s",
    "obs.audit": "obs.audit.batch_s",
    "bench": "bench.unattributed_self_s",
}


def make_workload(name: str, tracer):
    """Import the workload's module only now: it imports ``repro``."""
    if name.startswith("storm_"):
        from storm import StormWorkload
        return StormWorkload(name == "storm_observed", tracer)
    if name == "resolve_mix":
        from resolve import ResolveWorkload
        return ResolveWorkload(tracer)
    from replay import ReplayWorkload
    return ReplayWorkload(tracer)


class Measurement:
    """The (build, run, check) steps shared by both modes."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.host = hostspeed.HostSpeed()
        #: Per build: (reference seconds, wall seconds).
        self.setups: List[Tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.world = None
        self.ops = 0
        self.wall_s = 0.0

    def iteration(self, tracer=None, keep_spans: bool = False,
                  build: Optional[Callable] = None) -> float:
        """Build a fresh world (with ``build(seed)`` when given, else
        the workload's own) and run it timed; returns the timed region
        in reference seconds (``self.wall_s`` has its wall time).  With
        ``tracer`` the wrappers go on before the build and a root span
        surrounds the run."""
        self.world = None
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            speed_0 = self.host.sample()
            started = perf_counter()
            self.world = (build or self.workload.build)(self.seed)
            build_s = perf_counter() - started
            gc.collect()
            speed_1 = self.host.sample()
            if tracer is not None:
                tracer.begin(keep_spans)
            started = perf_counter()
            self.ops = self.workload.run(self.world)
            self.wall_s = perf_counter() - started
            if tracer is not None:
                tracer.end()
            speed_2 = self.host.sample()
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.setups.append(
            (hostspeed.reference_seconds(build_s, speed_0, speed_1), build_s))
        return hostspeed.reference_seconds(self.wall_s, speed_1, speed_2)

    def check(self, last: bool = False, count: bool = True) -> None:
        """Check the world just run, outside the timed region; ``last``
        asks for the checks too slow to repeat every iteration."""
        failed, problems = self.workload.check(self.world, last)
        self.failed += failed
        self.problems += problems
        if count:
            self.attempted += self.ops


def measure_end_to_end(run: Measurement, seconds: float) -> Dict:
    """``--trace 0``: the three end-to-end metrics."""
    run.iteration()
    run.check(count=False)
    log(f"warm-up iteration {run.wall_s:.3f} s (discarded)")
    rates: List[float] = []
    wall_rates: List[float] = []
    timed = 0.0
    while timed < seconds or len(rates) < MIN_ITERATIONS:
        rates.append(run.ops / run.iteration())
        wall_rates.append(run.ops / run.wall_s)
        timed += run.wall_s
        run.check(last=timed >= seconds and len(rates) >= MIN_ITERATIONS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s, setup_wall_s = (statistics.median(column)
                             for column in zip(*run.setups))
    log(f"{len(rates)} measured iterations, {timed:.2f} s timed, "
        f"{len(run.setups)} builds")
    # The same medians in plain wall-clock seconds, for spread.py to
    # set beside the reference-second figures.
    log(WALL_TAG + json.dumps({
        "ops_per_s": statistics.median(wall_rates),
        "setup_s": setup_wall_s}))
    return result(run, "end_to_end", {
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    })


def measure_per_layer(run: Measurement, seconds: float, tracer) -> Dict:
    """``--trace 1``: alternate untraced and traced iterations for half
    the budget, then make the workload's one-off probes."""
    workload, seed = run.workload, run.seed
    run.iteration()
    run.check(count=False)
    first_s = run.wall_s
    untraced: List[float] = []
    traced: List[float] = []
    samples: Dict[str, List[float]] = {}
    dump = None
    timed = 0.0
    while timed < seconds / 2 or len(traced) < 2:
        untraced.append(run.iteration())
        timed += run.wall_s
        run.check()
        # Counts repeat exactly traced or not; the times a workload
        # takes itself are better read where no span is in the way.
        sample = workload.counts(run.world)
        keep = dump is None
        traced.append(run.iteration(tracer, keep_spans=keep))
        timed += run.wall_s
        run.check(last=timed >= seconds / 2 and len(traced) >= 2)
        self_s = {layer: ns / 1e9 for layer, ns in tracer.self_ns.items()}
        sample.update((LAYER_METRICS[layer], value)
                      for layer, value in self_s.items()
                      if layer in LAYER_METRICS)
        sample["dnslib.share"] = (self_s.get("dnslib.decode", 0.0)
                                  + self_s.get("dnslib.encode", 0.0)
                                  ) / run.wall_s
        sample["net.simulator.peak_pending"] = tracer.peak_pending
        sample.update(tracer.calls)
        for name, value in sample.items():
            samples.setdefault(name, []).append(value)
        if keep:
            total_s = sum(self_s.values())
            dump = {"workload": workload.name, "seed": seed,
                    "wall_s": run.wall_s, "self_s_sum": total_s,
                    "closure_error": abs(total_s - run.wall_s) / run.wall_s,
                    "self_s": self_s, "spans": tracer.spans}
    untraced_s = statistics.median(untraced)
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    metrics.update(workload.extras(run, untraced_s))
    metrics.update({
        "bench.first_iter_s": first_s,
        "bench.iterations": len(traced),
        "bench.trace_overhead_ratio": statistics.median(traced) / untraced_s,
    })
    log(f"{len(traced)} traced + {len(untraced)} untraced iterations; "
        f"self times sum to within {dump['closure_error']:.1e} of the "
        f"traced wall")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload.name}-seed{seed}.json", "w") as stream:
        json.dump(dump, stream)
    return result(run, "per_layer", metrics)


def result(run: Measurement, section: str, metrics: Dict[str, float]) -> Dict:
    """The result object, metrics ordered and unit-stamped as
    ``BENCHMARK.json`` declares them in ``section`` (a declared metric
    the run did not produce is 0)."""
    with open(BENCHMARK_JSON) as stream:
        declared = json.load(stream)[section]
    unknown = set(metrics) - {entry["name"] for entry in declared}
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    for problem in run.problems:
        log(f"CHECK FAILED: {problem}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {entry["name"]: {"value": metrics.get(entry["name"], 0),
                                    "unit": entry["unit"]}
                    for entry in declared},
    }


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)   # exits 2 on an unknown workload
    if not (SRC / "repro").is_dir():
        log(f"{SRC / 'repro'} not found: nothing to benchmark")
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    tracer = Tracer()
    workload = make_workload(args.workload, tracer)
    problems = workload.precheck(args.seed)
    if problems:
        for problem in problems:
            log(f"CHECK FAILED before measurement: {problem}")
        return 2
    run = Measurement(workload, args.seed)
    if args.trace:
        outcome = measure_per_layer(run, args.seconds, tracer)
    else:
        outcome = measure_end_to_end(run, args.seconds)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
