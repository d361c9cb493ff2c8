"""In-flight state is small, closure-free and dies by reference count.

Per datagram copy the network schedules one slotted ``_Delivery``, per
notification leg the notification module keeps one slotted ``_Leg``
behind the two callbacks ``Socket.request`` holds; neither is a closure
and nothing they reference points back at them.  Two consequences are
pinned here on the 500-holder storm of ``test_storm_determinism.py``:

* the *census*: what the fan-out keeps alive per leg at its peak (both
  transmissions of every leg in flight, one retry timer armed) is a
  bounded number of GC-tracked objects, none of them a function or a
  closure cell;
* *refcount death*: with the cyclic collector off, a finished run
  leaves no delivery, leg, pending request or event handle behind —
  including the request that exhausted its retries, which used to be
  kept alive by its own fired timer.
"""

import collections
import gc

import pytest

from repro.core.notification import _Leg
from repro.net import Host, Network, RetryPolicy, Simulator
from repro.net.host import _PendingRequest
from repro.net.network import _Delivery
from repro.net.simulator import EventHandle

from tests.test_storm_determinism import (LEASED_NAME, NEW_ADDRESS,
                                          build_storm)

IN_FLIGHT = (_Delivery, _Leg, _PendingRequest, EventHandle)

#: GC-tracked objects one leg may keep alive at the fan-out peak: three
#: queue entries with their handles, two deliveries, the pending request
#: with its key and timer callback, the leg and its two bound methods —
#: 14 today (the closures this replaced came to 33).
PER_LEG_BUDGET = 15
#: Growth that does not scale with holders (the change's RRset, the
#: wire template, the census's own counter).
CONSTANT_BUDGET = 200


@pytest.fixture
def collector_off():
    """Run with the cyclic collector disabled (and put it back)."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def tracked_by_type():
    return collections.Counter(type(obj).__name__ for obj in gc.get_objects())


def peak_growth(holders):
    """Tracked objects, by type, that the fan-out added by 16 ms after
    the change — past the 15 ms retransmission, before the first ack."""
    storm = build_storm(holders)
    gc.collect()
    before = tracked_by_type()
    storm.zone.replace_address(LEASED_NAME, NEW_ADDRESS)
    storm.simulator.run_until(storm.simulator.now + 0.016)
    after = tracked_by_type()
    assert storm.simulator.pending == 3 * holders
    assert storm.middleware.notification.stats.in_flight == holders
    after.subtract(before)
    return after


def test_census_at_the_fanout_peak(collector_off):
    small, large = peak_growth(250), peak_growth(500)
    per_leg = (sum(large.values()) - sum(small.values())) / 250
    constant = sum(small.values()) - 250 * per_leg
    assert per_leg <= PER_LEG_BUDGET
    assert constant <= CONSTANT_BUDGET
    for closure_part in ("function", "cell"):
        assert large[closure_part] == small[closure_part]
    assert large["_Delivery"] == 2 * 500 and large["_Leg"] == 500


def in_flight_objects(besides=()):
    """Every live in-flight record, minus those in ``besides`` (what an
    earlier test's world may still hold; the caller keeps that list, so
    no identity in it can be reused)."""
    known = {id(obj) for obj in besides}
    return [obj for obj in gc.get_objects()
            if isinstance(obj, IN_FLIGHT) and id(obj) not in known]


@pytest.mark.parametrize("kwargs, failures", [
    pytest.param({}, False, id="clean"),
    pytest.param({"loss_rate": 0.2, "duplicate_rate": 0.1,
                  "max_attempts": 2}, True, id="loss0.2-dup0.1"),
])
def test_a_finished_storm_leaves_nothing_in_flight(collector_off, kwargs,
                                                   failures):
    storm = build_storm(**kwargs)
    others = in_flight_objects()
    storm.zone.replace_address(LEASED_NAME, NEW_ADDRESS)
    storm.simulator.run()
    stats = storm.middleware.notification.stats
    assert stats.in_flight == 0
    assert stats.acks_received + stats.failures == 500
    assert (stats.failures > 0) is failures
    assert in_flight_objects(besides=others) == []


def test_an_exhausted_request_is_not_kept_by_its_own_timer(collector_off):
    others = in_flight_objects()
    simulator = Simulator()
    network = Network(simulator)
    client = Host(network, "10.0.0.1").socket()
    server = Host(network, "10.0.0.2").dns_socket()

    def answer_only_request_1(payload, src, dst):
        if payload[1] == 1:
            server.send(payload[:2] + b"\x80", src)

    server.on_receive(answer_only_request_1)
    replies = []
    retry = RetryPolicy(initial_timeout=0.5, max_attempts=2)
    for match_id in (1, 2):
        client.request(bytes([0, match_id, 0]), server.endpoint, match_id,
                       lambda payload, src: replies.append(payload),
                       retry=retry)
    assert in_flight_objects(besides=others) != []
    simulator.run()
    assert replies == [b"\x00\x01\x80", None]
    assert in_flight_objects(besides=others) == []
