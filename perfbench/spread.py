#!/usr/bin/env python3
"""Is the benchmark steady enough to judge a change with?

Runs every workload of ``BENCHMARK.json`` on ten seeds, twice, the way
the driver does.  For each end-to-end metric it prints the median and
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound.  It exits 1 when a spread exceeds its bound or
when the second set's median is worse than the first's by more than the
bound.  ``ops_per_s`` and ``setup_s`` are in reference seconds
(``hostspeed.py``); the plain wall-clock medians each run logs are
tabulated beside them, unjudged, so the correction can be audited.  One
``--trace 1`` run per workload follows, so the per-layer picture is on
record beside the spreads.  The output is markdown; the committed copy is ``BASELINE.md``.

    python3 perfbench/spread.py > perfbench/BASELINE.md
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from run import WALL_TAG

ROOT = Path(__file__).resolve().parent.parent
#: Seeds per workload and set.
RUNS = 10


def run_once(command: List[str], workload: str, seed: int, seconds: int,
             trace: int) -> Dict:
    """One benchmark run; returns its parsed result line, with the
    plain wall-clock medians it logged under ``"wall"``."""
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    if not outcome["correct"] or outcome["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run "
                           f"({outcome['failed']} failed)")
    for line in done.stderr.splitlines():
        _, tag, wall = line.partition(WALL_TAG)
        if tag:
            outcome["wall"] = json.loads(wall)
    return outcome


def spread_of(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the second median is worse (<= 0: not)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def summary(sets: List[Dict[str, List[float]]], name: str, better: str):
    """(medians, spreads, drift) of one metric over the two sets."""
    medians = [statistics.median(s[name]) for s in sets]
    spreads = [spread_of(s[name]) for s in sets]
    return medians, spreads, worsening(medians[0], medians[1], better)


def row(workload: str, name: str, unit: str, medians: List[float],
        spreads: List[float], drift: float, bound: str, verdict: str) -> None:
    print(f"| {workload} | {name} | {unit} "
          f"| {medians[0]:.6g} | {spreads[0]:.2%} "
          f"| {medians[1]:.6g} | {spreads[1]:.2%} "
          f"| {drift:+.2%} | {bound} | {verdict} |", flush=True)


def commit_id() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True,
                               check=True).stdout.strip()
        return head + (" + uncommitted changes" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as stream:
        spec = json.load(stream)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    print("# perfbench baseline\n")
    print(f"- machine: {platform.machine()} {platform.system()} "
          f"{platform.release()}, nproc {os.cpu_count()}")
    print(f"- python: {platform.python_version()}")
    print(f"- commit: {commit_id()}")
    print(f"- {RUNS} seeds per workload and set, two sets, "
          f"`--seconds {seconds}`\n")
    print("Spread = (Q3 - Q1) / median over the set's runs; the target "
          "is a third of the bound.  Drift = how much worse the second "
          "set's median is than the first's (negative: better).\n")
    print("| workload | metric | unit | set 1 median | spread | "
          "set 2 median | spread | drift | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    failures = 0
    for workload in workloads:
        sets, wall_sets = [], []
        for first_seed in (1, 1 + RUNS):
            outcomes = [run_once(spec["command"], workload, seed, seconds, 0)
                        for seed in range(first_seed, first_seed + RUNS)]
            sets.append({m["name"]: [o["metrics"][m["name"]]["value"]
                                     for o in outcomes] for m in metrics})
            wall_sets.append({name: [o["wall"][name] for o in outcomes]
                              for name in outcomes[0]["wall"]})
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians, spreads, drift = summary(sets, name, metric["better"])
            ok = drift <= bound and max(spreads) <= bound
            steady = max(spreads) <= bound / 3
            verdict = "FAIL" if not ok else ("ok" if steady
                                             else "ok, above bound/3")
            failures += not ok
            row(workload, name, metric["unit"], medians, spreads, drift,
                f"{bound:.0%}", verdict)
            if name in wall_sets[0]:
                row(workload, f"{name}, plain wall clock", metric["unit"],
                    *summary(wall_sets, name, metric["better"]),
                    "—", "not judged")

    print("\n## Per-layer picture (`--trace 1`, seed 1, metrics that are "
          "not 0)\n")
    for workload in workloads:
        outcome = run_once(spec["command"], workload, 1, seconds, 1)
        print(f"### {workload}\n")
        print("| metric | value | unit |")
        print("|---|---|---|")
        for name, entry in outcome["metrics"].items():
            if entry["value"]:
                print(f"| {name} | {entry['value']:.6g} | {entry['unit']} |")
        print(flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
