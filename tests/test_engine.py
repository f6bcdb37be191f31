"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EventLoop, SimulationError


def drain(loop):
    """Step ``loop`` until its queue is empty, the way the simulator does."""
    while loop.step():
        pass


class TestScheduling:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(5.0, lambda env: order.append("late"))
        loop.schedule(1.0, lambda env: order.append("early"))
        drain(loop)
        assert order == ["early", "late"]

    def test_ties_broken_by_insertion_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda env: order.append("first"))
        loop.schedule(1.0, lambda env: order.append("second"))
        drain(loop)
        assert order == ["first", "second"]

    def test_now_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(3.5, lambda env: seen.append(env.now))
        drain(loop)
        assert seen == [3.5]
        assert loop.now == 3.5

    def test_schedule_at_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(2.0, lambda env: seen.append(env.now))
        drain(loop)
        assert seen == [2.0]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda env: None)

    def test_schedule_in_the_past_rejected(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda env: None)
        drain(loop)
        with pytest.raises(SimulationError):
            loop.schedule_at(1.0, lambda env: None)

    def test_events_can_schedule_more_events(self):
        loop = EventLoop()
        times = []

        def chain(env):
            times.append(env.now)
            if len(times) < 3:
                env.schedule(1.0, chain)

        loop.schedule(1.0, chain)
        drain(loop)
        assert times == [1.0, 2.0, 3.0]


class TestControl:
    def test_cancelled_events_do_not_run(self):
        loop = EventLoop()
        seen = []
        handle = loop.schedule(1.0, lambda env: seen.append("cancelled"))
        loop.schedule(2.0, lambda env: seen.append("kept"))
        handle.cancel()
        drain(loop)
        assert seen == ["kept"]
        assert handle.cancelled

    def test_step_returns_false_when_empty(self):
        assert EventLoop().step() is False

    def test_peek_skips_cancelled(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda env: None)
        loop.schedule(2.0, lambda env: None)
        handle.cancel()
        assert loop.peek() == 2.0

    def test_processed_event_count(self):
        loop = EventLoop()
        for delay in (1.0, 2.0, 3.0):
            loop.schedule(delay, lambda env: None)
        drain(loop)
        assert loop.processed_events == 3


class TestReschedule:
    def test_reschedule_moves_event(self):
        loop = EventLoop()
        seen = []
        handle = loop.schedule(5.0, lambda env: seen.append(env.now))
        moved = loop.reschedule(handle, 2.0)
        drain(loop)
        assert seen == [2.0]
        assert handle.cancelled
        assert not moved.cancelled

    def test_reschedule_can_postpone(self):
        loop = EventLoop()
        seen = []
        handle = loop.schedule(1.0, lambda env: seen.append(env.now))
        loop.reschedule(handle, 9.0)
        drain(loop)
        assert seen == [9.0]

    def test_reschedule_cancelled_event_rejected(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda env: None)
        handle.cancel()
        with pytest.raises(SimulationError):
            loop.reschedule(handle, 2.0)

    def test_reschedule_executed_event_rejected(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda env: None)
        drain(loop)
        with pytest.raises(SimulationError):
            loop.reschedule(handle, 2.0)


class TestTiers:
    def test_same_time_runs_ascending_tier(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda env: order.append("default"))
        loop.schedule(1.0, lambda env: order.append("late"), tier=1)
        loop.schedule(1.0, lambda env: order.append("early"), tier=-1)
        drain(loop)
        assert order == ["early", "default", "late"]

    def test_insertion_order_within_a_tier(self):
        loop = EventLoop()
        order = []
        for index in range(4):
            loop.schedule(2.0, lambda env, i=index: order.append(i), tier=-1)
        drain(loop)
        assert order == [0, 1, 2, 3]

    def test_time_beats_tier(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda env: order.append("sooner"), tier=5)
        loop.schedule(2.0, lambda env: order.append("later"), tier=-5)
        drain(loop)
        assert order == ["sooner", "later"]

    def test_negative_tier_event_scheduled_mid_run_preempts_same_time(self):
        # The lazy trace-arrival cursor pattern: an event scheduled *during*
        # the run (so with a high sequence number) must still beat tier-0
        # events at the same timestamp.
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda env: order.append("tick-a"))

        def plant(env):
            env.schedule_at(3.0, lambda e: order.append("arrival"), tier=-1)

        loop.schedule(2.0, plant)
        loop.schedule(3.0, lambda env: order.append("tick-b"))
        drain(loop)
        assert order == ["tick-a", "arrival", "tick-b"]

    def test_reschedule_preserves_tier(self):
        loop = EventLoop()
        order = []
        handle = loop.schedule(5.0, lambda env: order.append("moved"), tier=-1)
        loop.schedule(3.0, lambda env: order.append("fixed"))
        loop.schedule(0.0, lambda env: None)  # force a step first

        def move(env):
            env.reschedule(handle, 3.0)

        loop.schedule(1.0, move)
        drain(loop)
        assert order == ["moved", "fixed"]


class TestScheduleAtExactness:
    # A float pair where now + (target - now) lands one ulp off target: the
    # exact trap schedule_at must dodge to keep lazily scheduled arrivals
    # bit-aligned with upfront ones.
    NOW = 0.8615060406187329
    TARGET = 3.9896391258994854

    def test_absolute_time_is_stored_exactly(self):
        # now + (time - now) can differ from `time` by one ulp; schedule_at
        # must store the requested instant bit-for-bit, or events scheduled
        # for the same absolute time from different "now"s would misorder.
        assert self.NOW + (self.TARGET - self.NOW) != self.TARGET
        loop = EventLoop()
        times = []
        loop.schedule(self.NOW, lambda env: env.schedule_at(
            self.TARGET, lambda e: times.append(e.now)
        ))
        drain(loop)
        assert times == [self.TARGET]

    def test_same_instant_from_different_nows_ties_on_tier(self):
        loop = EventLoop()
        order = []
        target = self.TARGET
        loop.schedule_at(target, lambda env: order.append("upfront"), tier=-1)
        loop.schedule(self.NOW, lambda env: env.schedule_at(
            target, lambda e: order.append("lazy"), tier=-1
        ))
        drain(loop)
        assert order == ["upfront", "lazy"]


#: Offsets and tiers drawn from tiny sets, so most events tie on time and
#: many on tier too.
OFFSETS = st.sampled_from((0.0, 1.0, 2.0))
TIERS = st.sampled_from((-1, 0, 1))
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), OFFSETS, TIERS),
        st.tuples(st.just("schedule_at"), OFFSETS, TIERS),
        st.tuples(st.just("reschedule"), st.integers(0, 63), OFFSETS),
        st.tuples(st.just("cancel"), st.integers(0, 63), st.none()),
        st.tuples(st.just("step"), st.none(), st.none()),
    ),
    max_size=40,
)


class TestHeapOrder:
    """Events run in ``(time, tier, sequence)`` order, also across a restore."""

    @settings(max_examples=200, deadline=None)
    @given(operations=OPERATIONS)
    def test_order_matches_sorted_live_events(self, operations):
        loop = EventLoop()
        ran = []
        # label -> (time, tier, sequence, handle) of every live event; the
        # model numbers sequences itself, one per schedule or reschedule.
        live = {}
        sequence = 0

        def record(label):
            return lambda env: ran.append(label)

        def next_label():
            return min(live, key=lambda label: live[label][:3])

        for kind, a, b in operations:
            if kind in ("schedule", "schedule_at"):
                label = f"e{sequence}"
                if kind == "schedule":
                    handle = loop.schedule(a, record(label), label=label, tier=b)
                else:
                    handle = loop.schedule_at(
                        loop.now + a, record(label), label=label, tier=b
                    )
                live[label] = (loop.now + a, b, sequence, handle)
                sequence += 1
            elif kind == "step":
                expected = next_label() if live else None
                assert loop.step() is (expected is not None)
                if expected is not None:
                    assert ran[-1] == expected
                    del live[expected]
            elif live:
                label = sorted(live)[a % len(live)]
                _, tier, _, handle = live.pop(label)
                if kind == "cancel":
                    handle.cancel()
                else:
                    moved = loop.reschedule(handle, loop.now + b)
                    live[label] = (loop.now + b, tier, sequence, moved)
                    sequence += 1

        remaining = [
            label for label in sorted(live, key=lambda label: live[label][:3])
        ]
        state = loop.snapshot_state()
        assert [event[:3] for event in state["events"]] == [
            list(live[label][:3]) for label in remaining
        ]
        restored, replayed = EventLoop(), []
        restored.restore_state(
            state, lambda label: lambda env: replayed.append(label)
        )
        done = len(ran)
        drain(loop)
        drain(restored)
        assert ran[done:] == remaining
        assert replayed == remaining
        assert restored.now == loop.now

