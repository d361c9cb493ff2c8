"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.dnslib import A, Name, NS, RRSet, RRType, SOA
from repro.net import Host, Network, Simulator
from repro.obs.trace import pack_fields
from repro.zone import Zone, load_zone

EXAMPLE_ZONE_TEXT = """\
$ORIGIN example.com.
$TTL 3600
@       IN SOA ns1 admin 1 7200 900 604800 300
@       IN NS  ns1
@       IN NS  ns2
@       IN MX  10 mail
ns1     IN A   10.0.0.1
ns2     IN A   10.0.0.2
www     IN A   10.0.0.10
www     IN A   10.0.0.11
mail    IN A   10.0.0.20
ftp     IN CNAME www
text    IN TXT "hello world"
sub     IN NS  ns1.sub
ns1.sub IN A   10.0.1.1
"""


def pack(events):
    """Hand-built ``(t, name, {field: value})`` events in the bus's
    record shape — positional fields — through the trace loader's own
    ``pack_fields``: a key the dict lacks is a ``None`` slot, exactly
    what loading a JSONL line without it gives."""
    return [(t, name, pack_fields(name, fields)) for t, name, fields in events]


def emit_dict(bus, event, t=None, **fields):
    """``bus.emit`` for a test that names only the fields it cares about."""
    bus.emit(event, t, *pack_fields(event, fields))


@pytest.fixture
def example_zone() -> Zone:
    return load_zone(EXAMPLE_ZONE_TEXT)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture
def network(simulator) -> Network:
    return Network(simulator, seed=1234)


@pytest.fixture
def make_host(network):
    """Factory: make_host('10.0.0.1') -> Host bound to that address."""
    def factory(address: str) -> Host:
        return Host(network, address)
    return factory


def make_a_rrset(name: str, ttl: int, *addresses: str) -> RRSet:
    return RRSet(name, RRType.A, ttl, [A(addr) for addr in addresses])


@pytest.fixture
def a_rrset():
    return make_a_rrset
