"""Unit tests for RNG streams, the tracer, and unit helpers."""

import sys

import numpy as np
import pytest

from repro.sim.rand import RandomStreams, stable_name_key
from repro.sim.trace import ExecInterval, TraceAggregator, TraceFanout, Tracer
from repro.units import (
    kib,
    mib,
    ms,
    ns,
    seconds,
    to_ms,
    to_us,
    transfer_time,
    us,
)


# -- RandomStreams ----------------------------------------------------------

def test_same_seed_same_stream():
    a = RandomStreams(7).get("wan").random(5)
    b = RandomStreams(7).get("wan").random(5)
    assert np.array_equal(a, b)


def test_different_seed_different_stream():
    a = RandomStreams(7).get("wan").random(5)
    b = RandomStreams(8).get("wan").random(5)
    assert not np.array_equal(a, b)


def test_different_names_independent():
    streams = RandomStreams(7)
    a = streams.get("a").random(5)
    b = streams.get("b").random(5)
    assert not np.array_equal(a, b)


def test_stream_isolation_from_request_order():
    s1 = RandomStreams(7)
    s1.get("other").random(100)  # consuming another stream...
    a = s1.get("wan").random(5)
    b = RandomStreams(7).get("wan").random(5)  # ...does not perturb this one
    assert np.array_equal(a, b)


def test_get_returns_same_generator():
    streams = RandomStreams(0)
    assert streams.get("x") is streams.get("x")


def test_fork_is_deterministic_and_distinct():
    a = RandomStreams(7).fork("trial-1").get("x").random(3)
    b = RandomStreams(7).fork("trial-1").get("x").random(3)
    c = RandomStreams(7).fork("trial-2").get("x").random(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_must_be_int():
    with pytest.raises(TypeError):
        RandomStreams("seven")


def test_stable_name_key_is_stable():
    assert stable_name_key("wan-jitter") == stable_name_key("wan-jitter")
    assert stable_name_key("a") != stable_name_key("b")


# -- Tracer ----------------------------------------------------------------

def test_tracer_records_interval():
    tr = Tracer()
    tr.begin_execute(0, 1.0, "C", "e")
    tr.end_execute(0, 2.5)
    assert len(tr.intervals) == 1
    iv = tr.intervals[0]
    assert (iv.pe, iv.start, iv.end, iv.duration) == (0, 1.0, 2.5, 1.5)


def test_tracer_nested_begin_rejected():
    tr = Tracer()
    tr.begin_execute(0, 1.0, "C", "e")
    with pytest.raises(ValueError):
        tr.begin_execute(0, 1.5, "C", "f")


def test_tracer_end_without_begin_rejected():
    with pytest.raises(ValueError):
        Tracer().end_execute(0, 1.0)


def test_tracer_pe_usage_and_makespan():
    tr = Tracer()
    tr.begin_execute(0, 0.0, "C", "a")
    tr.end_execute(0, 1.0)
    tr.begin_execute(1, 1.0, "C", "b")
    tr.end_execute(1, 4.0)
    usage = tr.pe_usage()
    assert usage[0].busy == 1.0
    assert usage[1].busy == 3.0
    assert tr.makespan() == 4.0
    assert usage[1].utilization(tr.makespan()) == pytest.approx(0.75)


def test_tracer_busy_during_window():
    tr = Tracer()
    tr.begin_execute(0, 0.0, "C", "a")
    tr.end_execute(0, 2.0)
    tr.begin_execute(0, 3.0, "C", "b")
    tr.end_execute(0, 5.0)
    assert tr.busy_during(0, 1.0, 4.0) == pytest.approx(2.0)
    assert tr.busy_during(1, 0.0, 5.0) == 0.0


def test_tracer_wan_flight_windows_pair_by_seq_under_reordering():
    """Regression: jitter/retransmission delivers out of send order; FIFO
    pairing would cross the windows. Ids keep them straight."""
    tr = Tracer()
    tr.message_sent(0.0, 0, 1, 100, "a", True, seq=1)
    tr.message_sent(0.5, 0, 1, 100, "b", True, seq=2)
    tr.message_delivered(2.0, 0, 1, 100, "b", True, seq=2)  # b overtook a
    tr.message_delivered(9.0, 0, 1, 100, "a", True, seq=1)
    windows = tr.wan_flight_windows()
    assert sorted(windows) == [(0.0, 9.0, 0, 1), (0.5, 2.0, 0, 1)]


def test_tracer_wan_flight_windows_retransmit_and_dup():
    """A retransmitted id yields one window, first send -> first deliver;
    duplicate deliveries and drop events add nothing."""
    tr = Tracer()
    tr.message_sent(0.0, 0, 1, 100, "m", True, seq=5)
    tr.message_dropped(0.0, 0, 1, 100, "m", True, seq=5)
    tr.message_sent(1.0, 0, 1, 100, "m", True, seq=5)   # retransmission
    tr.message_delivered(3.0, 0, 1, 100, "m", True, seq=5)
    tr.message_delivered(3.5, 0, 1, 100, "m", True, seq=5)  # wire dup
    assert tr.wan_flight_windows() == [(0.0, 3.0, 0, 1)]


def test_tracer_reliability_counters():
    tr = Tracer()
    tr.note_retransmit()
    tr.note_retransmit()
    tr.note_dup_suppressed()
    assert (tr.retransmits, tr.dups_suppressed) == (2, 1)


def test_tracer_render_timeline_smoke():
    tr = Tracer()
    tr.begin_execute(0, 0.0, "C", "a")
    tr.end_execute(0, 1.0)
    art = tr.render_timeline(width=20)
    assert "PE  0" in art and "#" in art


def test_tracer_empty_timeline():
    assert Tracer().render_timeline() == "(empty trace)"


# -- busy_during: bisect path ------------------------------------------------

def test_busy_during_boundary_clipping():
    tr = Tracer()
    for s, e in ((0.0, 2.0), (3.0, 5.0), (6.0, 7.0)):
        tr.begin_execute(0, s, "C", "a")
        tr.end_execute(0, e)
    # Window clips both boundary intervals.
    assert tr.busy_during(0, 1.0, 6.5) == pytest.approx(1.0 + 2.0 + 0.5)
    # Window entirely inside one interval.
    assert tr.busy_during(0, 3.2, 3.7) == pytest.approx(0.5)
    # Window entirely in a gap, and touching interval edges exactly.
    assert tr.busy_during(0, 2.0, 3.0) == 0.0
    assert tr.busy_during(0, 5.0, 6.0) == 0.0
    # Degenerate / inverted windows.
    assert tr.busy_during(0, 4.0, 4.0) == 0.0
    assert tr.busy_during(0, 4.0, 3.0) == 0.0


def test_busy_during_matches_naive_scan():
    intervals = [(0.0, 1.0), (1.5, 2.0), (4.0, 8.0), (9.0, 9.5)]
    tr = Tracer()
    for s, e in intervals:
        tr.begin_execute(2, s, "C", "a")
        tr.end_execute(2, e)

    def naive(start, end):
        return sum(max(0.0, min(e, end) - max(s, start))
                   for s, e in intervals)

    for start, end in ((0.0, 10.0), (0.5, 1.75), (2.0, 4.0), (7.0, 9.2),
                       (8.5, 8.9), (-1.0, 0.5), (9.4, 12.0)):
        assert tr.busy_during(2, start, end) == pytest.approx(
            naive(start, end)), (start, end)


def test_busy_during_index_rebuilt_after_append():
    """Regression: the sorted per-PE index must notice new intervals."""
    tr = Tracer()
    tr.begin_execute(0, 0.0, "C", "a")
    tr.end_execute(0, 1.0)
    assert tr.busy_during(0, 0.0, 10.0) == pytest.approx(1.0)  # builds index
    tr.begin_execute(0, 5.0, "C", "b")
    tr.end_execute(0, 6.0)
    assert tr.busy_during(0, 0.0, 10.0) == pytest.approx(2.0)


def test_exec_interval_uses_slots_on_modern_python():
    iv = ExecInterval(pe=0, start=0.0, end=1.0, chare="C", entry="e")
    if sys.version_info >= (3, 10):
        assert not hasattr(iv, "__dict__")


# -- TraceAggregator ---------------------------------------------------------

def test_aggregator_masked_fraction_hand_computed():
    """One 10 s WAN window; destination busy for 4 s of it -> 40% masked."""
    agg = TraceAggregator()
    agg.message_sent(0.0, 0, 1, 100, "m", True, seq=1)
    agg.begin_execute(1, 2.0, "C", "work")
    agg.end_execute(1, 5.0)               # 3 s inside the window
    agg.begin_execute(1, 9.0, "C", "work")
    agg.message_delivered(10.0, 0, 1, 100, "m", True, seq=1)  # 1 s partial
    agg.end_execute(1, 12.0)
    assert agg.wan.windows == 1
    assert agg.wan.flight_time == pytest.approx(10.0)
    assert agg.wan.masked_time == pytest.approx(4.0)
    assert agg.masked_latency_fraction == pytest.approx(0.4)


def test_aggregator_usage_profiles_and_makespan():
    agg = TraceAggregator()
    agg.begin_execute(0, 1.0, "C", "a")
    agg.end_execute(0, 2.0)
    agg.begin_execute(1, 2.0, "C", "a")
    agg.end_execute(1, 5.0)
    assert agg.makespan() == pytest.approx(4.0)
    usage = agg.pe_usage()
    assert usage[0].busy == pytest.approx(1.0)
    assert usage[1].executions == 1
    prof = agg.profile_by_entry()[("C", "a")]
    assert prof.calls == 2
    assert prof.total_time == pytest.approx(4.0)
    assert agg.utilization()[1] == pytest.approx(0.75)


def test_aggregator_nested_begin_rejected():
    agg = TraceAggregator()
    agg.begin_execute(0, 1.0, "C", "a")
    with pytest.raises(ValueError):
        agg.begin_execute(0, 1.5, "C", "b")
    with pytest.raises(ValueError):
        TraceAggregator().end_execute(3, 1.0)


def test_aggregator_dropped_window_stays_open():
    agg = TraceAggregator()
    agg.message_sent(0.0, 0, 1, 100, "m", True, seq=1)
    agg.message_dropped(0.0, 0, 1, 100, "m", True, seq=1)
    assert agg.wan.open_windows == 1
    assert agg.wan.windows == 0
    assert agg.masked_latency_fraction == 0.0  # no closed flight time
    assert (agg.drops, agg.wan_drops) == (1, 1)


def test_aggregator_dropped_ack_closes_its_window():
    """A lost ARQ ack is never re-sent under its own seq, so its window
    goes with the drop; the data window beside it stays open."""
    agg = TraceAggregator()
    agg.message_sent(0.0, 0, 1, 100, "m", True, seq=1)
    agg.message_sent(1.0, 1, 0, 16, "ack:1", True, seq=2, ack_for=1)
    agg.message_dropped(1.0, 1, 0, 16, "ack:1", True, seq=2, ack_for=1)
    assert agg.wan.open_windows == 1
    assert agg._wan_open[0] == {}
    assert list(agg._wan_open[1]) == [(0, 1)]
    assert agg.wan.windows == 0
    assert (agg.drops, agg.wan_drops) == (1, 1)


def test_aggregator_summary_shape():
    agg = TraceAggregator()
    agg.begin_execute(0, 0.0, "C", "a")
    agg.end_execute(0, 1.0)
    agg.message_sent(0.0, 0, 1, 64, "m", False, seq=1)
    s = agg.summary()
    assert s["executions"] == 1
    assert s["messages"]["sent"] == 1
    assert s["messages"]["wan_sent"] == 0
    assert 0.0 <= s["wan"]["masked_fraction"] <= 1.0


def test_fanout_feeds_all_enabled_sinks():
    tr = Tracer()
    agg = TraceAggregator()
    fan = TraceFanout([tr, agg])
    fan.begin_execute(0, 0.0, "C", "a")
    fan.end_execute(0, 2.0)
    fan.message_sent(0.0, 0, 1, 10, "m", True, seq=1)
    fan.message_delivered(1.0, 0, 1, 10, "m", True, seq=1)
    assert len(tr.intervals) == 1
    assert agg.pe_usage()[0].busy == pytest.approx(2.0)
    assert agg.wan.windows == 1


# -- units --------------------------------------------------------------------

def test_time_conversions():
    assert ms(5) == pytest.approx(5e-3)
    assert us(3) == pytest.approx(3e-6)
    assert ns(7) == pytest.approx(7e-9)
    assert seconds(2) == 2.0
    assert to_ms(0.25) == pytest.approx(250.0)
    assert to_us(1e-3) == pytest.approx(1000.0)


def test_size_conversions():
    assert kib(2) == 2048
    assert mib(1) == 1024 * 1024


def test_transfer_time():
    assert transfer_time(1000, 1e6) == pytest.approx(1e-3)
    assert transfer_time(1000, 0.0) == 0.0
