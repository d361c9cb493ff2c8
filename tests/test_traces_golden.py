"""Golden query traces: the generator's output is pinned, not just its repeatability.

``tests/fixtures/trace_workload_golden.json`` holds, for each case in
:data:`CASES`, the event count and the SHA-256 over ``repr((time,
client, name text, nameserver))`` of every event in order.  It was
generated from the commit *before* the generator dropped its heap merge
(``python tests/test_traces_golden.py`` with that commit's ``src`` and
the repo root on ``PYTHONPATH`` rewrites it).  ``QueryEvent`` equality
sees only ``(time, client)`` — ``name`` and ``nameserver`` are
``compare=False`` — so a determinism test that compares two runs with
``==`` would pass a name mix-up; these digests would not.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.traces import (PopulationConfig, WorkloadConfig,
                          assign_global_zipf, generate_population,
                          generate_queries, generate_requests)

FIXTURE = (pathlib.Path(__file__).parent / "fixtures"
           / "trace_workload_golden.json")

WEEK = 7 * 86400.0


def bench_population():
    """The benches' constant 460-name Zipf(1.1) population."""
    return assign_global_zipf(
        generate_population(PopulationConfig(
            regular_per_tld=40, cdn_count=30, dyn_count=30, seed=2006)),
        exponent=1.1, seed=99)


def small_population():
    """Twenty-seven domains; the fourth is never requested, and the last
    repeats the first one's name so the two are thinned together."""
    domains = generate_population(PopulationConfig(
        regular_per_tld=2, cdn_count=3, dyn_count=3, seed=5))
    domains[3] = dataclasses.replace(domains[3], popularity=0.0)
    domains.append(dataclasses.replace(domains[0], popularity=0.6))
    return domains


def week_queries():
    """``replay_sweep``'s dense week at seed 1."""
    return generate_queries(bench_population(), WorkloadConfig(
        duration=WEEK, clients=150, nameservers=3, total_request_rate=0.7,
        client_cache_seconds=900.0, seed=1))


def resolve_requests(seed):
    """``resolve_mix``'s request stream."""
    return lambda: generate_requests(bench_population(), WorkloadConfig(
        duration=5400.0, total_request_rate=2.0, client_cache_seconds=0,
        seed=seed))


def small(generate, **overrides):
    fields = dict(duration=7200.0, clients=12, nameservers=3,
                  total_request_rate=1.5, seed=11)
    fields.update(overrides)
    return lambda: generate(small_population(), WorkloadConfig(**fields))


CASES = {
    "week_queries_seed1": week_queries,
    "resolve_requests_seed1": resolve_requests(1),
    "resolve_requests_seed2": resolve_requests(2),
    "small_requests_no_burst_no_cache": small(
        generate_requests, burst_mean=1.0, client_cache_seconds=0.0),
    "small_queries_no_burst_no_cache": small(
        generate_queries, burst_mean=1.0, client_cache_seconds=0.0),
    "small_queries_shared_name": small(
        generate_queries, client_cache_seconds=300.0, burst_spread=400.0),
}


def digest(events):
    """(count, sha256) over every event's full content, in order."""
    sha = hashlib.sha256()
    count = 0
    for event in events:
        sha.update(repr((event.time, event.client, str(event.name),
                         event.nameserver)).encode())
        count += 1
    return {"events": count, "sha256": sha.hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_every_case_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden(case, golden):
    assert digest(CASES[case]()) == golden[case]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {case: digest(make()) for case, make in sorted(CASES.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} digests to {FIXTURE}")
