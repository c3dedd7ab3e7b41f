"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_clock_custom_start():
    assert Engine(start_time=5.0).now == 5.0


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.post(3.0, lambda: order.append("c"))
    eng.post(1.0, lambda: order.append("a"))
    eng.post(2.0, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_post_order():
    eng = Engine()
    order = []
    for i in range(10):
        eng.post(1.0, lambda i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time():
    eng = Engine()
    seen = []
    eng.post(2.5, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [2.5]
    assert eng.now == 2.5


def test_post_in_past_rejected():
    eng = Engine()
    eng.post(1.0, lambda: None)
    eng.run()
    with pytest.raises(SchedulingError):
        eng.post(0.5, lambda: None)


def test_post_in_negative_delay_rejected():
    with pytest.raises(SchedulingError):
        Engine().post_in(-1.0, lambda: None)


def test_post_in_relative():
    eng = Engine()
    seen = []
    eng.post(1.0, lambda: eng.post_in(0.5, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [1.5]


def test_events_scheduled_during_run_fire():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.post(eng.now, lambda: order.append("nested"))

    eng.post(1.0, first)
    eng.post(2.0, lambda: order.append("second"))
    eng.run()
    assert order == ["first", "nested", "second"]


def test_cancel_prevents_firing():
    eng = Engine()
    fired = []
    handle = eng.post(1.0, lambda: fired.append(1))
    eng.cancel(handle)
    eng.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    eng = Engine()
    handle = eng.post(1.0, lambda: None)
    eng.cancel(handle)
    eng.cancel(handle)
    eng.run()


def test_run_until_stops_and_advances_clock():
    eng = Engine()
    fired = []
    eng.post(1.0, lambda: fired.append(1))
    eng.post(5.0, lambda: fired.append(5))
    eng.run(until=3.0)
    assert fired == [1]
    assert eng.now == 3.0
    eng.run()
    assert fired == [1, 5]


def test_run_until_inclusive_of_boundary():
    eng = Engine()
    fired = []
    eng.post(3.0, lambda: fired.append(3))
    eng.run(until=3.0)
    assert fired == [3]


def test_step_returns_false_when_empty():
    assert Engine().step() is False


def test_step_fires_single_event():
    eng = Engine()
    fired = []
    eng.post(1.0, lambda: fired.append(1))
    eng.post(2.0, lambda: fired.append(2))
    assert eng.step() is True
    assert fired == [1]


def test_max_events_guards_livelock():
    eng = Engine(max_events=10)

    def ping():
        eng.post_in(1.0, ping)

    eng.post(0.0, ping)
    with pytest.raises(SimulationError):
        eng.run()


def test_events_processed_counter():
    eng = Engine()
    for i in range(5):
        eng.post(float(i), lambda: None)
    eng.run()
    assert eng.events_processed == 5


def test_pending_counts_queue():
    eng = Engine()
    eng.post(1.0, lambda: None)
    eng.post(2.0, lambda: None)
    assert eng.pending == 2


def test_run_not_reentrant():
    eng = Engine()
    errors = []

    def reenter():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.post(1.0, reenter)
    eng.run()
    assert len(errors) == 1


def test_snapshot():
    eng = Engine()
    eng.post(1.0, lambda: None)
    now, pending, processed = eng.snapshot()
    assert (now, pending, processed) == (0.0, 1, 0)


def test_zero_delay_event_runs_after_earlier_same_time_posts():
    eng = Engine()
    order = []
    eng.post(1.0, lambda: order.append("a"))

    def at_one():
        order.append("b")
        eng.post_in(0.0, lambda: order.append("c"))

    eng.post(1.0, at_one)
    eng.run()
    assert order == ["a", "b", "c"]


# -- daemon events ---------------------------------------------------------


def test_daemon_event_fires_in_time_order():
    eng = Engine()
    order = []
    eng.post(1.0, lambda: order.append("daemon"), daemon=True)
    eng.post(2.0, lambda: order.append("work"))
    eng.run()
    assert order == ["daemon", "work"]


def test_daemon_events_excluded_from_pending():
    eng = Engine()
    eng.post(1.0, lambda: None, daemon=True)
    assert eng.pending == 0
    eng.post(2.0, lambda: None)
    assert eng.pending == 1


def test_run_terminates_when_only_daemons_remain():
    eng = Engine()
    ticks = []

    def tick():
        ticks.append(eng.now)
        eng.post_in(1.0, tick, daemon=True)

    eng.post_in(1.0, tick, daemon=True)
    eng.post(3.5, lambda: None)
    eng.run()
    # Ticks at 1, 2, 3 fired alongside the real event at 3.5; the tick
    # rescheduled past the last non-daemon event never runs.
    assert ticks == [1.0, 2.0, 3.0]
    assert eng.now == 3.5


def test_self_rescheduling_daemon_does_not_livelock_empty_run():
    eng = Engine()

    def tick():
        eng.post_in(1.0, tick, daemon=True)

    eng.post_in(1.0, tick, daemon=True)
    eng.run()  # returns immediately: pending == 0
    assert eng.now == 0.0


def test_cancel_daemon_event_keeps_pending_consistent():
    eng = Engine()
    h = eng.post(1.0, lambda: None, daemon=True)
    eng.post(2.0, lambda: None)
    eng.cancel(h)
    assert eng.pending == 1
    eng.run()
    assert eng.now == 2.0


def test_daemon_leftovers_resume_on_next_run():
    eng = Engine()
    ticks = []
    eng.post(5.0, lambda: ticks.append("late-daemon"), daemon=True)
    eng.post(1.0, lambda: None)
    eng.run()
    assert eng.now == 1.0 and ticks == []
    eng.post(6.0, lambda: ticks.append("work"))
    eng.run()
    assert ticks == ["late-daemon", "work"]


# -- args-tuple dispatch (the allocation-free fast path) ---------------------


def test_post_with_args_tuple():
    eng = Engine()
    seen = []
    eng.post(1.0, seen.append, args=("x",))
    eng.post(2.0, lambda a, b: seen.append(a + b), args=(1, 2))
    eng.run()
    assert seen == ["x", 3]


def test_post_in_with_args_tuple():
    eng = Engine()
    seen = []
    eng.post_in(0.5, seen.append, args=(42,))
    eng.run()
    assert seen == [42] and eng.now == 0.5


def test_args_dispatch_interleaves_with_plain_actions():
    eng = Engine()
    order = []
    eng.post(1.0, order.append, args=("args",))
    eng.post(1.0, lambda: order.append("plain"))
    eng.post(2.0, order.append, args=("last",))
    eng.run()
    assert order == ["args", "plain", "last"]


def test_cancel_args_event():
    eng = Engine()
    seen = []
    h = eng.post(1.0, seen.append, args=("no",))
    eng.post(2.0, seen.append, args=("yes",))
    eng.cancel(h)
    eng.run()
    assert seen == ["yes"]


def test_daemon_event_with_args():
    eng = Engine()
    seen = []
    eng.post(1.0, seen.append, args=("daemon",), daemon=True)
    eng.post(2.0, seen.append, args=("work",))
    eng.run()
    assert seen == ["daemon", "work"]


# -- bounded windows ---------------------------------------------------------


def test_run_window_is_exclusive_and_never_forces_clock():
    eng = Engine()
    fired = []
    eng.post(1.0, lambda: fired.append(1.0))
    eng.post(2.0, lambda: fired.append(2.0))
    eng.post(3.0, lambda: fired.append(3.0))
    stopped = eng.run_window(2.0)
    # Strictly-inside events only; the clock stays at the last event,
    # leaving [1.0, 2.0) open for later posts.
    assert fired == [1.0]
    assert stopped == eng.now == 1.0
    eng.post(1.5, lambda: fired.append(1.5))
    eng.run_window(10.0)
    assert fired == [1.0, 1.5, 2.0, 3.0]


def test_run_until_is_inclusive_and_forces_clock():
    eng = Engine()
    fired = []
    eng.post(2.0, lambda: fired.append(2.0))
    eng.run(until=2.0)
    assert fired == [2.0]
    eng2 = Engine()
    eng2.post(5.0, lambda: None)
    assert eng2.run(until=3.0) == 3.0 and eng2.now == 3.0


def test_run_window_empty_queue_leaves_clock():
    eng = Engine(start_time=4.0)
    assert eng.run_window(9.0) == 4.0


def test_run_window_not_reentrant():
    eng = Engine()
    errors = []

    def reenter():
        try:
            eng.run_window(5.0)
        except SimulationError as exc:
            errors.append(exc)

    eng.post(1.0, reenter)
    eng.run_window(2.0)
    assert len(errors) == 1


def test_cancel_heavy_bounded_run_accounting():
    eng = Engine()
    fired = []
    handles = [eng.post(float(t), fired.append, args=(float(t),))
               for t in range(1, 21)]
    for h in handles[::2]:          # cancel every odd time (1, 3, ...)
        eng.cancel(h)
    eng.run(until=10.0)
    assert fired == [2.0, 4.0, 6.0, 8.0, 10.0]
    eng.run_window(15.0)            # exclusive: 15.0 itself stays queued
    assert fired[-1] == 14.0
    eng.run()
    assert fired == [float(t) for t in range(2, 21, 2)]
    assert eng.pending == 0


def test_cancel_after_window_still_honoured():
    eng = Engine()
    fired = []
    eng.post(1.0, fired.append, args=("a",))
    late = eng.post(3.0, fired.append, args=("late",))
    eng.run_window(2.0)
    eng.cancel(late)
    eng.run()
    assert fired == ["a"] and eng.pending == 0

