"""Query workload generation.

The trace-driven evaluation (§5.1) replays one week of queries from
about two thousand clients against three local nameservers.  We generate
the equivalent synthetically:

* per-domain client *request* streams are Poisson — the paper validates
  this very assumption on its traces (Figure 4), citing Paxson & Floyd's
  finding that session-level arrivals are Poisson;
* domain popularity is Zipf (the weights on :class:`DomainSpec`);
* each client passes its requests through a browser-style cache
  (15-minute default), so the *query* stream a nameserver sees is the
  request stream thinned by per-client caching — exactly the client
  caching effect §5.1 models.

Each domain's stream has its own ``random.Random``, seeded in domain
order from the workload seed, so streams are independent and are drawn
one domain at a time: a domain's requests are sorted once, thinned by
the client cache per ``(client, name)`` before any :class:`QueryEvent`
exists (domains sharing a name are thinned together), and the
survivors of every domain, laid out in domain order, take one stable
sort by time.  That order is the one a merge keyed on ``(time, domain
index, ...)`` would produce, and
``ClientCacheFilter(c).filter(generate_requests(...))`` equals
:func:`generate_queries` event for event; ``tests/test_traces_golden.py``
pins the traces themselves.
"""

from __future__ import annotations

import dataclasses
import math
import random
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..dnslib import Name
from .domains import DomainSpec


@dataclasses.dataclass(frozen=True, order=True)
class QueryEvent:
    """One DNS query as a local nameserver would log it."""

    time: float
    client: int
    name: Name = dataclasses.field(compare=False)
    nameserver: int = dataclasses.field(compare=False, default=0)


@dataclasses.dataclass
class WorkloadConfig:
    """Workload shape, defaulting to a shrunken version of the paper's
    setting (three nameservers, ~2000 clients, one week)."""

    duration: float = 86400.0          # one day by default; a week in benches
    clients: int = 100
    nameservers: int = 3
    #: Mean total request rate across all domains, requests/second.
    total_request_rate: float = 2.0
    #: Per-client DNS cache duration, seconds (Mozilla default 900).
    client_cache_seconds: float = 900.0
    #: Session burstiness: each Poisson session arrival drags along a
    #: geometric number of extra requests (mean ``burst_mean - 1``) from
    #: the same client within ``burst_spread`` seconds — the page-load
    #: pattern that makes raw inter-arrival CV exceed 1 until client
    #: caching smooths it (Figure 4).  ``burst_mean=1`` disables bursts.
    burst_mean: float = 3.0
    burst_spread: float = 60.0
    seed: int = 7


def domain_request_rates(domains: Sequence[DomainSpec],
                         total_rate: float) -> List[Tuple[DomainSpec, float]]:
    """Split an aggregate request rate across domains by popularity."""
    total_weight = sum(domain.popularity for domain in domains)
    if total_weight <= 0:
        raise ValueError("domain popularities sum to zero")
    return [(domain, total_rate * domain.popularity / total_weight)
            for domain in domains]


def _domain_requests(domains: Sequence[DomainSpec], config: WorkloadConfig
                     ) -> Iterator[List[Tuple[float, int]]]:
    """Each domain's requests, one domain at a time, as ``(time, client)``
    pairs in the order a time-ordered merge of all domains reaches them."""
    rng = random.Random(config.seed)
    # Session arrivals are Poisson per domain; the configured total rate
    # counts *all* requests, so session rates are scaled down by the
    # mean burst size.
    burst_mean = max(1.0, config.burst_mean)
    bursty = burst_mean > 1.0
    p_more = 1.0 - 1.0 / burst_mean
    duration, spread, clients = (config.duration, config.burst_spread,
                                 config.clients)
    for _domain, rate in domain_request_rates(domains,
                                              config.total_request_rate):
        # Every domain takes a seed, requested or not, so a domain's
        # draws never depend on another's.
        stream = random.Random(rng.randrange(1 << 30))
        rate /= burst_mean
        sessions: List[Tuple[float, int]] = []
        if rate > 0:
            draw, expovariate = stream.random, stream.expovariate
            follow_ups: List[Tuple[float, int]] = []
            time = expovariate(rate)
            while time <= duration:
                client = stream.randrange(clients)
                sessions.append((time, client))
                # Geometric burst: the session brings extra requests
                # from the same client shortly afterwards.
                if bursty:
                    while draw() < p_more:
                        extra_time = time + stream.uniform(0.0, spread)
                        if extra_time <= duration:
                            follow_ups.append((extra_time, client))
                time += expovariate(rate)
            # Sessions are drawn in time order; at one instant a session
            # comes before follow-ups, and follow-ups go by client.  A
            # stable sort by time over the two sorted runs keeps both.
            follow_ups.sort()
            sessions += follow_ups
            sessions.sort(key=itemgetter(0))
        yield sessions


def _thin(requests: List[tuple], cache_seconds: float) -> List[tuple]:
    """The requests of one name, ``(time, client, ...)`` in time order,
    that miss their client's cache."""
    last_fetch: Dict[int, float] = {}
    fetched = last_fetch.get
    passed: List[tuple] = []
    keep = passed.append
    for request in requests:
        time, client = request[0], request[1]
        if time - fetched(client, -math.inf) < cache_seconds:
            continue
        last_fetch[client] = time
        keep(request)
    return passed


def _thin_by_name(domains: Sequence[DomainSpec],
                  requests: Iterable[List[Tuple[float, int]]],
                  cache_seconds: float
                  ) -> Iterator[Tuple[int, List[Tuple[float, int]]]]:
    """``(domain index, requests that miss the client cache)``.

    The cache is per (client, name), so domains that share a name are
    held back until the last of them is drawn, merged in time order
    (domain order breaking ties), thinned together and dealt back."""
    members: Dict[Name, List[int]] = {}
    for index, domain in enumerate(domains):
        members.setdefault(domain.name, []).append(index)
    held: Dict[int, List[Tuple[float, int]]] = {}
    for index, pairs in enumerate(requests):
        sharing = members[domains[index].name]
        if len(sharing) == 1:
            yield index, _thin(pairs, cache_seconds)
            continue
        held[index] = pairs
        if index != sharing[-1]:
            continue
        merged = [(time, client, member) for member in sharing
                  for time, client in held.pop(member)]
        merged.sort(key=itemgetter(0))
        dealt: Dict[int, List[Tuple[float, int]]] = {
            member: [] for member in sharing}
        for time, client, member in _thin(merged, cache_seconds):
            dealt[member].append((time, client))
        yield from dealt.items()


def _trace(domains: Sequence[DomainSpec],
           requests: Iterable[Tuple[int, List[Tuple[float, int]]]],
           nameservers: int) -> Iterator[QueryEvent]:
    """One time-ordered trace from ``(domain index, requests)``.

    Domain by domain in index order, then one stable sort by time: the
    order a heap merge keyed on ``(time, domain index, ...)`` pops."""
    per_domain: List[List[QueryEvent]] = [[] for _ in domains]
    for index, pairs in requests:
        name = domains[index].name
        per_domain[index] = [QueryEvent(time, client, name,
                                        client % nameservers)
                             for time, client in pairs]
    events = list(chain.from_iterable(per_domain))
    events.sort(key=attrgetter("time"))
    return iter(events)


def generate_requests(domains: Sequence[DomainSpec],
                      config: WorkloadConfig) -> Iterator[QueryEvent]:
    """The raw client *request* stream (before client caching), in time
    order, assigned to clients uniformly and to each client's home
    nameserver by client id."""
    return _trace(domains, enumerate(_domain_requests(domains, config)),
                  config.nameservers)


class ClientCacheFilter:
    """Thin a request stream by per-(client, name) caching.

    A request is forwarded (becomes a nameserver query) only when the
    client's cached copy is older than ``cache_seconds``.  With
    ``cache_seconds=0`` every request goes through.
    """

    def __init__(self, cache_seconds: float):
        if cache_seconds < 0:
            raise ValueError("cache_seconds must be non-negative")
        self.cache_seconds = cache_seconds
        self._last_fetch: Dict[Tuple[int, Name], float] = {}
        self.requests_seen = 0
        self.queries_passed = 0

    def offer(self, event: QueryEvent) -> bool:
        """True when the request escalates to a nameserver query."""
        self.requests_seen += 1
        if self.cache_seconds == 0:
            self.queries_passed += 1
            return True
        key = (event.client, event.name)
        last = self._last_fetch.get(key)
        if last is not None and event.time - last < self.cache_seconds:
            return False
        self._last_fetch[key] = event.time
        self.queries_passed += 1
        return True

    def filter(self, events: Iterable[QueryEvent]) -> Iterator[QueryEvent]:
        """Yield only the requests that pass the cache."""
        for event in events:
            if self.offer(event):
                yield event

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests absorbed by the client cache."""
        if self.requests_seen == 0:
            return 0.0
        return 1.0 - self.queries_passed / self.requests_seen


def generate_queries(domains: Sequence[DomainSpec],
                     config: WorkloadConfig) -> Iterator[QueryEvent]:
    """Requests thinned by the client cache: the nameserver-visible trace.

    The same trace as ``ClientCacheFilter(config.client_cache_seconds)``
    over :func:`generate_requests`, without building the requests the
    cache absorbs."""
    cache_seconds = config.client_cache_seconds
    if cache_seconds < 0:
        raise ValueError("cache_seconds must be non-negative")
    return _trace(domains, _thin_by_name(
        domains, _domain_requests(domains, config), cache_seconds),
        config.nameservers)


def split_by_nameserver(events: Iterable[QueryEvent],
                        nameservers: int) -> List[List[QueryEvent]]:
    """Partition a query stream into per-nameserver traces (NS I/II/III)."""
    traces: List[List[QueryEvent]] = [[] for _ in range(nameservers)]
    for event in events:
        traces[event.nameserver % nameservers].append(event)
    return traces


def measured_rates(events: Iterable[QueryEvent], duration: float,
                   by: str = "name") -> Dict:
    """Empirical query rates from a trace.

    ``by="name"`` → rate per domain; ``by="name-nameserver"`` → rate per
    (domain, nameserver) pair — the λ_ij input of the lease optimizers,
    the way §5.1 computes them "by analyzing the first-day traces".
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    counts: Dict = {}
    for event in events:
        if by == "name":
            key = event.name
        elif by == "name-nameserver":
            key = (event.name, event.nameserver)
        else:
            raise ValueError(f"unknown grouping: {by!r}")
        counts[key] = counts.get(key, 0) + 1
    return {key: count / duration for key, count in counts.items()}
