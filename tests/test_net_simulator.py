"""Tests for the discrete-event simulator and its heap queue.

The queue contract is the ``(time, seq)`` fire order, pinned case by
case and, for arbitrary schedule/cancel/run programs, against a
sorted-list oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import PeriodicTimer, SimulationError, Simulator
from repro.net.simulator import _COMPACT_SLACK


class TestScheduling:
    def test_events_fire_in_time_order(self, simulator):
        fired = []
        simulator.schedule(2.0, lambda: fired.append("b"))
        simulator.schedule(1.0, lambda: fired.append("a"))
        simulator.schedule(3.0, lambda: fired.append("c"))
        simulator.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self, simulator):
        fired = []
        for tag in range(5):
            simulator.schedule(1.0, lambda t=tag: fired.append(t))
        simulator.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self, simulator):
        times = []
        simulator.schedule(1.5, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [1.5]

    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)

    def test_schedule_into_past_rejected(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self, simulator):
        fired = []

        def outer():
            fired.append(("outer", simulator.now))
            simulator.schedule(1.0, inner)

        def inner():
            fired.append(("inner", simulator.now))

        simulator.schedule(1.0, outer)
        simulator.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_call_soon_runs_after_pending_same_time(self, simulator):
        fired = []
        simulator.schedule(0.0, lambda: fired.append("first"))
        simulator.call_soon(lambda: fired.append("second"))
        simulator.run()
        assert fired == ["first", "second"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        simulator.run()
        assert not fired

    def test_double_cancel_harmless(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_excludes_cancelled(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        assert simulator.pending == 2
        handle.cancel()
        assert simulator.pending == 1

    def test_cancel_is_effective_and_idempotent(self, simulator):
        log = []
        keep = simulator.schedule(1.0, lambda: log.append("keep"))
        drop = simulator.schedule(1.0, lambda: log.append("drop"))
        drop.cancel()
        drop.cancel()
        simulator.run()
        assert log == ["keep"]
        assert simulator.pending == 0
        assert drop.cancelled and not keep.cancelled

    def test_event_cancelled_by_an_earlier_event(self, simulator):
        log = []
        victim = simulator.schedule_at(3.0, lambda: log.append("victim"))
        simulator.schedule_at(3.0, lambda: log.append("kept"))
        simulator.schedule_at(0.5, victim.cancel)
        simulator.run()
        assert log == ["kept"]

    def test_cancel_after_fire_is_a_noop(self, simulator):
        # A periodic timer stopped from inside its own tick cancels the
        # handle that is firing; that must not be counted a second time.
        timers = []
        timers.append(PeriodicTimer(simulator, 1.0,
                                    lambda: timers[0].stop(), daemon=False))
        fired = simulator.schedule(1.0, lambda: None)
        simulator.run()
        fired.cancel()
        assert not fired.cancelled
        assert simulator.pending == 0
        assert simulator.events_processed == 2
        simulator.schedule(1.0, lambda: None)
        assert simulator.run() == 1


class TestRunVariants:
    def test_run_until_fires_only_due_events(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(5.0, lambda: fired.append(5))
        count = simulator.run_until(2.0)
        assert count == 1 and fired == [1]
        assert simulator.now == 2.0
        assert simulator.pending == 1

    def test_run_until_inclusive_boundary(self, simulator):
        fired = []
        simulator.schedule(2.0, lambda: fired.append(2))
        simulator.run_until(2.0)
        assert fired == [2]

    def test_run_for_relative(self, simulator):
        simulator.run_until(10.0)
        fired = []
        simulator.schedule(1.0, lambda: fired.append(simulator.now))
        simulator.run_for(2.0)
        assert fired == [11.0]
        assert simulator.now == 12.0

    def test_run_backwards_rejected(self, simulator):
        simulator.run_until(5.0)
        with pytest.raises(SimulationError):
            simulator.run_until(1.0)

    def test_run_max_events(self, simulator):
        for _ in range(10):
            simulator.schedule(1.0, lambda: None)
        assert simulator.run(max_events=3) == 3
        assert simulator.pending == 7

    def test_step_returns_false_when_empty(self, simulator):
        assert simulator.step() is False

    def test_events_processed_counter(self, simulator):
        for _ in range(4):
            simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert simulator.events_processed == 4

    def test_determinism_across_instances(self):
        def run_once():
            simulator = Simulator()
            log = []
            simulator.schedule(0.5, lambda: log.append(("a", simulator.now)))
            simulator.schedule(0.5, lambda: simulator.schedule(
                0.25, lambda: log.append(("b", simulator.now))))
            simulator.run()
            return log
        assert run_once() == run_once()


class TestSingleQueue:
    """The ``(time, seq)`` contract, case by case."""

    def test_queue_argument_is_gone(self):
        with pytest.raises(TypeError):
            Simulator(queue="heap")

    def test_fire_order_same_time_is_schedule_order(self, simulator):
        log = []
        for tag in "abc":
            simulator.schedule(
                1.0, lambda tag=tag: log.append((simulator.now, tag)))
        simulator.run()
        assert log == [(1.0, "a"), (1.0, "b"), (1.0, "c")]

    def test_handles_carry_explicit_sequence(self, simulator):
        first = simulator.schedule(5.0, lambda: None)
        second = simulator.schedule(1.0, lambda: None)
        # Monotonic schedule order, independent of fire order.
        assert second.seq == first.seq + 1

    def test_call_soon_during_same_time_drain(self, simulator):
        # An event scheduled at the current time while same-time events
        # drain still fires in this run, after the ones already pending.
        log = []

        def first():
            log.append("first")
            simulator.call_soon(lambda: log.append("soon"))
        simulator.schedule(1.0, first)
        simulator.schedule(1.0, lambda: log.append("second"))
        simulator.run()
        assert log == ["first", "second", "soon"]

    def test_same_time_events_scheduled_at_different_times(self, simulator):
        # The explicit seq (not identity or arrival order in the heap)
        # orders two events that share a timestamp.
        log = []
        simulator.schedule_at(2.0, lambda: log.append("early-sched"))
        simulator.schedule_at(1.0, lambda: simulator.schedule_at(
            2.0, lambda: log.append("late-sched")))
        simulator.run()
        assert log == ["early-sched", "late-sched"]

    def test_run_until_advances_between_sparse_times(self, simulator):
        log = []
        simulator.schedule(0.5, lambda: log.append(("a", simulator.now)))
        simulator.schedule(5000.0, lambda: log.append(("b", simulator.now)))
        assert simulator.run_until(0.5) == 1 and simulator.now == 0.5
        assert simulator.run_until(6000.0) == 1 and simulator.now == 6000.0
        assert log == [("a", 0.5), ("b", 5000.0)]

    def test_exact_edge_timers_fire_in_order(self, simulator):
        # Power-of-64 multiples of 1/64 s and their half-step
        # neighbours: float times that differ in the last few bits.
        times = []
        for level in range(4):
            span = 64.0 ** level / 64
            for base in (span, 64 * span, 128 * span):
                times += [base - span / 2, base, base + span / 2]
        log = []
        for tag, time in enumerate(times):
            simulator.schedule_at(
                time, lambda tag=tag: log.append((simulator.now, tag)))
        simulator.run()
        assert log == sorted((time, tag) for tag, time in enumerate(times))

    def test_daemon_events_fire_only_ahead_of_other_work(self, simulator):
        log = []
        simulator.schedule(1.0, lambda: log.append("daemon-1"), daemon=True)
        simulator.schedule(2.0, lambda: log.append("work"))
        simulator.schedule(3.0, lambda: log.append("daemon-3"), daemon=True)
        assert simulator.run() == 2
        assert log == ["daemon-1", "work"]
        assert simulator.pending == 1
        assert simulator.step() is True and log[-1] == "daemon-3"


class TestHeapHygiene:
    """Cancelled entries may not pile up ahead of the live ones."""

    PAIRS = 100_000
    #: The compaction slack plus the entry whose cancel is being judged.
    SLACK = _COMPACT_SLACK + 1

    def test_schedule_cancel_churn_keeps_the_heap_small(self, simulator):
        log = []
        live = []
        longest = 0
        for index in range(self.PAIRS):
            # The retry-timer pattern: armed, then cancelled by the ack.
            handle = simulator.schedule(30.0 + index % 7, lambda: log.append(
                "cancelled event fired"))
            if index % 20_000 == 0:
                tag = len(live)
                live.append(simulator.schedule(
                    1000.0 - tag, lambda tag=tag: log.append(tag),
                    daemon=tag == 0))
            handle.cancel()
            longest = max(longest, len(simulator._heap))
            assert len(simulator._heap) <= 2 * simulator.pending + self.SLACK
        assert longest <= 2 * len(live) + self.SLACK
        assert simulator.pending == len(live) == 5
        # The last-scheduled live timer is the earliest; the daemon
        # (tag 0, the latest) is left queued by run().
        assert simulator.run() == 4
        assert log == [4, 3, 2, 1]
        assert simulator.pending == 1 and not live[0].cancelled

    def test_compaction_during_a_run_keeps_fire_order(self, simulator):
        # Each fired event cancels a block of later ones, which compacts
        # the heap while run() is in the middle of draining it.
        log = []
        victims = [[simulator.schedule(500.0 + block, lambda: log.append(
            "victim")) for _ in range(200)] for block in range(10)]
        times = []
        for block in range(10):
            time = 1.0 + (block * 7) % 10

            def fire(block=block):
                log.append((simulator.now, block))
                for victim in victims[block]:
                    victim.cancel()
            simulator.schedule_at(time, fire)
            times.append((time, block))
        simulator.run()
        assert log == sorted(times)
        assert simulator.pending == 0
        assert len(simulator._heap) <= _COMPACT_SLACK


# -- property: any workload, the sorted-list oracle's sequence -----------------


class SortedListOracle:
    """The queue contract, executably: keep every event in a list, fire
    the smallest live ``(time, seq)`` next."""

    def __init__(self):
        self.now = 0.0
        self.log = []
        self.processed = 0
        self._entries = []   # [time, seq, daemon, live]

    def schedule(self, delay, daemon):
        self._entries.append([self.now + delay, len(self._entries), daemon,
                              True])

    def cancel(self, index):
        self._entries[index][3] = False

    def _live(self):
        return sorted(entry for entry in self._entries if entry[3])

    def _fire(self, entry):
        entry[3] = False
        self.now = entry[0]
        self.processed += 1
        self.log.append((entry[0], entry[1]))

    def run_for(self, duration):
        until = self.now + duration
        while self._live() and self._live()[0][0] <= until:
            self._fire(self._live()[0])
        self.now = until

    def run(self):
        while any(not entry[2] for entry in self._live()):
            self._fire(self._live()[0])

    @property
    def pending(self):
        return len(self._live())


program_strategy = st.lists(
    st.one_of(
        # (schedule, delay-seconds, daemon?)
        st.tuples(st.just("schedule"),
                  st.floats(min_value=0.0, max_value=9000.0,
                            allow_nan=False, allow_infinity=False),
                  st.booleans()),
        # cancel the i-th schedule so far (modulo their count)
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        # run for a stretch of virtual time
        st.tuples(st.just("run_for"), st.floats(min_value=0.0,
                                                max_value=500.0,
                                                allow_nan=False,
                                                allow_infinity=False)),
    ),
    min_size=0, max_size=60)


@settings(max_examples=200, deadline=None)
@given(program=program_strategy)
def test_simulator_matches_sorted_list_oracle(program):
    simulator, oracle = Simulator(), SortedListOracle()
    log = []
    handles = []
    for op in program:
        if op[0] == "schedule":
            _, delay, daemon = op
            tag = len(handles)
            handles.append(simulator.schedule(
                delay, lambda tag=tag: log.append((simulator.now, tag)),
                daemon=daemon))
            assert handles[-1].seq == tag
            oracle.schedule(delay, daemon)
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
                oracle.cancel(op[1] % len(handles))
        else:
            simulator.run_for(op[1])
            oracle.run_for(op[1])
            assert simulator.now == oracle.now
    simulator.run()
    oracle.run()
    assert log == oracle.log
    assert simulator.now == oracle.now
    assert simulator.pending == oracle.pending
    assert simulator.events_processed == oracle.processed
