"""Sink-failure isolation in :class:`TraceFanout`.

A broken sink must neither corrupt nor silence its siblings, and its
error must surface to the caller exactly once.
"""

import pytest

from repro.sim.trace import TraceFanout


class _RecordingSink:
    def __init__(self):
        self.events = []

    def begin_execute(self, pe, now, chare, entry, sid=None, parent=None,
                      trigger=None, obj=None):
        self.events.append(("begin", pe, now))

    def end_execute(self, pe, now):
        self.events.append(("end", pe, now))

    def message_sent(self, now, src_pe, dst_pe, size, tag, crossed_wan,
                     seq=None, cause=None, ack_for=None,
                     src_obj=None, dst_obj=None, arq_attempt=0):
        self.events.append(("sent", src_pe, dst_pe, arq_attempt))

    def message_delivered(self, now, src_pe, dst_pe, size, tag,
                          crossed_wan, seq=None, cause=None, ack_for=None,
                          src_obj=None, dst_obj=None):
        self.events.append(("delivered", src_pe, dst_pe))

    def message_dropped(self, now, src_pe, dst_pe, size, tag, crossed_wan,
                        seq=None, cause=None, ack_for=None,
                        src_obj=None, dst_obj=None):
        self.events.append(("dropped", src_pe, dst_pe))

    def note_retransmit(self):
        self.events.append(("retransmit",))

    def note_dup_suppressed(self):
        self.events.append(("dup",))

    def message_hops(self, now, src_pe, dst_pe, size, tag, crossed_wan,
                     seq, arrival, hops, relay_hop=0, arq_attempt=0):
        self.events.append(("hops", seq, len(hops)))


class _BrokenSink(_RecordingSink):
    def note_retransmit(self):
        raise RuntimeError("sink exploded")

    def end_execute(self, pe, now):
        raise RuntimeError("sink exploded again")


def test_broken_sink_does_not_silence_the_others():
    broken, healthy = _BrokenSink(), _RecordingSink()
    fan = TraceFanout([broken, healthy])
    with pytest.raises(RuntimeError, match="sink exploded"):
        fan.note_retransmit()
    # The healthy sink received the event despite the earlier sink dying.
    assert healthy.events == [("retransmit",)]


def test_error_surfaces_exactly_once_then_quarantine():
    broken, healthy = _BrokenSink(), _RecordingSink()
    fan = TraceFanout([broken, healthy])
    with pytest.raises(RuntimeError):
        fan.note_retransmit()
    # Subsequent calls skip the quarantined sink and stay silent.
    fan.note_retransmit()
    fan.note_dup_suppressed()
    assert healthy.events == [("retransmit",)] * 2 + [("dup",)]
    # The broken sink was never called again (its other raising method
    # would have thrown if it had been).
    fan.end_execute(0, 1.0)
    assert healthy.events[-1] == ("end", 0, 1.0)


def test_sibling_order_independent_isolation():
    # Broken sink listed last: earlier sinks already got the event, and
    # the error still propagates.
    healthy, broken = _RecordingSink(), _BrokenSink()
    fan = TraceFanout([healthy, broken])
    with pytest.raises(RuntimeError):
        fan.note_retransmit()
    assert healthy.events == [("retransmit",)]


def test_first_error_wins_when_multiple_sinks_raise():
    class _BrokenA(_BrokenSink):
        def note_retransmit(self):
            raise RuntimeError("A")

    class _BrokenB(_BrokenSink):
        def note_retransmit(self):
            raise RuntimeError("B")

    healthy = _RecordingSink()
    fan = TraceFanout([_BrokenA(), healthy, _BrokenB()])
    with pytest.raises(RuntimeError, match="^A$"):
        fan.note_retransmit()
    assert healthy.events == [("retransmit",)]
    # Both offenders quarantined; a later event reaches only the healthy
    # sink and raises nothing.
    fan.note_retransmit()
    assert healthy.events == [("retransmit",)] * 2


def test_all_event_kinds_fan_out():
    a, b = _RecordingSink(), _RecordingSink()
    fan = TraceFanout([a, b])
    fan.begin_execute(1, 0.5, "Chare", "entry")
    fan.end_execute(1, 0.6)
    fan.message_sent(0.7, 0, 1, 64, "t", True, arq_attempt=2)
    fan.message_delivered(0.8, 0, 1, 64, "t", True)
    fan.message_dropped(0.9, 0, 1, 64, "t", True)
    fan.note_retransmit()
    fan.note_dup_suppressed()
    fan.message_hops(1.0, 0, 4, 64, "t", True, 7, 1.2, ())
    assert a.events == b.events
    assert len(a.events) == 8
    assert a.events[2] == ("sent", 0, 1, 2)
    assert a.events[-1] == ("hops", 7, 0)


# -- close() ------------------------------------------------------------------

class _ClosableSink(_RecordingSink):
    def close(self):
        self.events.append(("close",))


class _BrokenCloseSink(_RecordingSink):
    def close(self):
        raise RuntimeError("close exploded")


def test_close_reaches_every_closable_sink():
    a, b, plain = _ClosableSink(), _ClosableSink(), _RecordingSink()
    fan = TraceFanout([a, plain, b])     # plain has no close(): skipped
    fan.close()
    assert a.events == [("close",)]
    assert b.events == [("close",)]
    assert plain.events == []


def test_close_skips_quarantined_sinks():
    broken, closable = _BrokenSink(), _ClosableSink()
    broken.close = lambda: (_ for _ in ()).throw(
        RuntimeError("must not be closed"))
    fan = TraceFanout([broken, closable])
    with pytest.raises(RuntimeError, match="sink exploded"):
        fan.note_retransmit()            # quarantines `broken`
    fan.close()                          # must not call broken.close
    assert closable.events == [("retransmit",), ("close",)]


def test_close_error_quarantines_but_closes_the_rest():
    broken, closable = _BrokenCloseSink(), _ClosableSink()
    fan = TraceFanout([broken, closable])
    with pytest.raises(RuntimeError, match="close exploded"):
        fan.close()
    # The sibling was still closed despite the earlier failure.
    assert closable.events == [("close",)]
    # The offender is quarantined for any further traffic.
    fan.note_retransmit()
    assert closable.events == [("close",), ("retransmit",)]
    assert broken.events == []
