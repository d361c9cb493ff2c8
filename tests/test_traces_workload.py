"""Tests for workload generation and client-cache thinning."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnslib import Name
from repro.traces import (
    ClientCacheFilter,
    PopulationConfig,
    QueryEvent,
    WorkloadConfig,
    domain_request_rates,
    generate_population,
    generate_queries,
    generate_requests,
    measured_rates,
    split_by_nameserver,
    trace_roundtrip,
    write_trace,
)


@pytest.fixture(scope="module")
def small_population():
    return generate_population(PopulationConfig(regular_per_tld=5,
                                                cdn_count=5, dyn_count=5))


@pytest.fixture(scope="module")
def config():
    return WorkloadConfig(duration=3600.0, clients=20, nameservers=3,
                          total_request_rate=1.0, seed=21)


@pytest.fixture(scope="module")
def requests(small_population, config):
    return list(generate_requests(small_population, config))


class TestRequestGeneration:
    def test_time_ordered(self, requests):
        times = [e.time for e in requests]
        assert times == sorted(times)

    def test_within_duration(self, requests, config):
        assert all(0 <= e.time <= config.duration for e in requests)

    def test_total_rate_approximate(self, requests, config):
        empirical = len(requests) / config.duration
        assert empirical == pytest.approx(config.total_request_rate, rel=0.2)

    def test_clients_in_range(self, requests, config):
        assert all(0 <= e.client < config.clients for e in requests)

    def test_nameserver_assignment_consistent(self, requests, config):
        for event in requests:
            assert event.nameserver == event.client % config.nameservers

    def test_deterministic(self, small_population, config):
        again = list(generate_requests(small_population, config))
        assert again == list(generate_requests(small_population, config))

    def test_popular_domains_queried_more(self, small_population, requests):
        rates = domain_request_rates(small_population, 1.0)
        hottest = max(rates, key=lambda pair: pair[1])[0]
        coldest = min(rates, key=lambda pair: pair[1])[0]
        count_hot = sum(1 for e in requests if e.name == hottest.name)
        count_cold = sum(1 for e in requests if e.name == coldest.name)
        assert count_hot >= count_cold


class TestClientCacheFilter:
    def make_events(self, times, client=0, name="www.x.com"):
        return [QueryEvent(t, client, Name.from_text(name)) for t in times]

    def test_suppresses_within_window(self):
        cache = ClientCacheFilter(cache_seconds=900.0)
        events = self.make_events([0.0, 100.0, 800.0, 950.0])
        passed = [e.time for e in cache.filter(events)]
        assert passed == [0.0, 950.0]

    def test_distinct_clients_independent(self):
        cache = ClientCacheFilter(900.0)
        events = (self.make_events([0.0], client=1)
                  + self.make_events([1.0], client=2))
        assert len(list(cache.filter(events))) == 2

    def test_distinct_names_independent(self):
        cache = ClientCacheFilter(900.0)
        events = (self.make_events([0.0], name="a.x.com")
                  + self.make_events([1.0], name="b.x.com"))
        assert len(list(cache.filter(events))) == 2

    def test_zero_cache_passes_everything(self):
        cache = ClientCacheFilter(0.0)
        events = self.make_events([0.0, 0.1, 0.2])
        assert len(list(cache.filter(events))) == 3
        assert cache.hit_ratio == 0.0

    def test_hit_ratio(self):
        cache = ClientCacheFilter(100.0)
        events = self.make_events([0.0, 1.0, 2.0, 3.0])
        list(cache.filter(events))
        assert cache.hit_ratio == 0.75

    def test_negative_cache_seconds_rejected(self):
        with pytest.raises(ValueError):
            ClientCacheFilter(-1.0)

    def test_generate_queries_thinner_than_requests(self, small_population,
                                                    config, requests):
        queries = list(generate_queries(small_population, config))
        assert 0 < len(queries) <= len(requests)


def full(events):
    """Every field of every event: ``QueryEvent`` equality sees only
    ``(time, client)``."""
    return [(e.time, e.client, e.name, e.nameserver) for e in events]


DIFFERENTIAL_BASE = generate_population(PopulationConfig(
    regular_per_tld=1, cdn_count=2, dyn_count=2, seed=3))

differential_domains = st.lists(
    st.tuples(st.integers(0, len(DIFFERENTIAL_BASE) - 1),
              st.sampled_from([0.0, 0.2, 1.0, 3.0])),
    min_size=1, max_size=5,
).map(lambda picks: [
    dataclasses.replace(DIFFERENTIAL_BASE[index], popularity=weight)
    for index, weight in picks]
    # Always two specs under one name, thinned by one cache entry.
    + [dataclasses.replace(DIFFERENTIAL_BASE[0], popularity=0.5),
       dataclasses.replace(DIFFERENTIAL_BASE[0], popularity=1.5)])

differential_configs = st.builds(
    WorkloadConfig,
    duration=st.floats(1.0, 1500.0),
    clients=st.integers(1, 6),
    nameservers=st.integers(1, 3),
    total_request_rate=st.floats(0.05, 2.0),
    client_cache_seconds=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
    burst_mean=st.sampled_from([1.0, 3.0]),
    burst_spread=st.floats(0.0, 120.0),
    seed=st.integers(0, 1 << 16),
)


class TestQueriesAgainstFilter:
    """``generate_queries`` thins per domain before any event exists;
    ``ClientCacheFilter`` over the full request stream is its reference."""

    @settings(max_examples=60, deadline=None)
    @given(domains=differential_domains, config=differential_configs)
    def test_equals_filtered_requests(self, domains, config):
        cache = ClientCacheFilter(config.client_cache_seconds)
        expected = full(cache.filter(generate_requests(domains, config)))
        assert full(generate_queries(domains, config)) == expected

    def test_shared_name_thinned_together(self, small_population):
        config = WorkloadConfig(duration=3600.0, clients=2,
                                total_request_rate=2.0, seed=5)
        hot = [dataclasses.replace(small_population[0], popularity=1.0),
               dataclasses.replace(small_population[0], popularity=1.0)]
        queries = full(generate_queries(hot, config))
        reference = full(ClientCacheFilter(900.0).filter(
            generate_requests(hot, config)))
        assert queries == reference
        # Two clients, one name: at most one fetch each per window.
        assert len(queries) <= 2 * (3600.0 / 900.0 + 1)

    def test_negative_cache_rejected_on_call(self, small_population):
        config = WorkloadConfig(client_cache_seconds=-1.0)
        with pytest.raises(ValueError):
            generate_queries(small_population, config)


class TestSplitsAndRates:
    def test_split_by_nameserver_partitions(self, requests, config):
        traces = split_by_nameserver(requests, config.nameservers)
        assert sum(len(t) for t in traces) == len(requests)
        for index, trace in enumerate(traces):
            assert all(e.nameserver == index for e in trace)

    def test_measured_rates_by_name(self, requests, config):
        rates = measured_rates(requests, config.duration)
        total = sum(rates.values())
        assert total == pytest.approx(len(requests) / config.duration)

    def test_measured_rates_by_pair(self, requests, config):
        rates = measured_rates(requests, config.duration,
                               by="name-nameserver")
        assert all(isinstance(key, tuple) for key in rates)

    def test_measured_rates_bad_grouping(self, requests):
        with pytest.raises(ValueError):
            measured_rates(requests, 1.0, by="bogus")

    def test_measured_rates_bad_duration(self, requests):
        with pytest.raises(ValueError):
            measured_rates(requests, 0.0)


class TestTraceFormat:
    def test_roundtrip(self, requests):
        sample = requests[:50]
        assert trace_roundtrip(sample) == sample

    def test_file_roundtrip(self, requests, tmp_path):
        from repro.traces import load_trace
        path = str(tmp_path / "trace.txt")
        write_trace(requests[:20], path)
        assert load_trace(path) == requests[:20]

    def test_malformed_line_rejected(self):
        import io
        from repro.traces import load_trace
        with pytest.raises(ValueError):
            load_trace(io.StringIO("1.0 2\n"))
