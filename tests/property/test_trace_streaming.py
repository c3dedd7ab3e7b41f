"""Recorded hop ledgers stay consistent under every fault fate.

Hypothesis generates randomized valid recording streams — WAN messages
with drops, retransmissions and wire duplicates, each non-dropped wire
copy with a hop ledger — replays them into a
:class:`~repro.sim.trace.Tracer` and checks the stored flight-recorder
records against the fabric's contract.

Times are drawn on a 1/16 grid so all arithmetic is exact in binary
floating point.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.hops import HOP_KINDS, HopSpan
from repro.sim.trace import Tracer

COMMON = dict(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])

#: (lane, owning link) pairs the synthetic hop ledgers draw from —
#: the shape a striped two-cluster chain produces.
HOP_LANES = (("delay", "delay"), ("wan/s0", "wan"), ("wan/s1", "wan"),
             ("shmem", "shmem"))


def _draw_ledger(draw, t0_ticks, t1_ticks):
    """A hop ledger tiling [t0, t1] with 1-3 spans on the 1/16 grid.

    Mirrors what a DeviceChain stamps: contiguous spans whose first
    enqueue is the send time and whose last arrive is the arrival.
    """
    interior = draw(st.lists(
        st.integers(min_value=t0_ticks, max_value=t1_ticks),
        min_size=0, max_size=2, unique=True))
    cuts = sorted({t0_ticks, t1_ticks, *interior})
    spans = []
    for a, b in zip(cuts, cuts[1:]):
        lane, link = draw(st.sampled_from(HOP_LANES))
        dq = draw(st.integers(min_value=a, max_value=b))
        ser = draw(st.integers(min_value=0, max_value=b - dq))
        spans.append(HopSpan(
            device=lane, link=link,
            kind=draw(st.sampled_from(HOP_KINDS)),
            enqueue=a / 16.0, dequeue=dq / 16.0, arrive=b / 16.0,
            ser_s=ser / 16.0,
            queue_depth=draw(st.integers(min_value=0, max_value=5)),
            stream=draw(st.sampled_from((None, 0, 1)))))
    return tuple(spans)


@st.composite
def schedules(draw):
    """A random valid message stream: list of (time, op, args) events.

    Valid means what the engine guarantees: every event's arguments are
    self-consistent, and the whole stream is replayed in non-decreasing
    time order.
    """
    n_pes = draw(st.integers(min_value=1, max_value=4))
    events = []

    # Messages: some WAN, some local; some dropped, retransmitted, or
    # delivered twice (wire duplicates).  Every event carries its id.
    # The drop_retx* fates exercise the reliable layer's worst case: the
    # first copy is lost on the wire, the retransmission's delivery is
    # reordered arbitrarily far relative to other messages, and (for
    # drop_retx_reorder) a duplicate delivery and a late spurious
    # retransmission — sent *after* the id was already delivered, i.e. a
    # reordered/lost ack — trail behind.
    n_msgs = draw(st.integers(min_value=0, max_value=12))
    for seq in range(n_msgs):
        src = draw(st.integers(min_value=0, max_value=n_pes - 1))
        dst = draw(st.integers(min_value=0, max_value=n_pes - 1))
        wan = draw(st.booleans())
        size = draw(st.integers(min_value=0, max_value=4096))
        t0i = draw(st.integers(min_value=0, max_value=1500))
        fli = draw(st.integers(min_value=1, max_value=400))
        t0, flight = t0i / 16.0, fli / 16.0
        # The fabric stamps a hop ledger on every non-dropped wire copy;
        # with_hops=False leaves a message's copies without one.
        with_hops = draw(st.booleans())
        relay = draw(st.integers(min_value=0, max_value=2))
        fate = draw(st.sampled_from(
            ["deliver", "deliver", "deliver", "drop", "dup", "retransmit",
             "drop_retx", "drop_retx_reorder"]))
        args = (src, dst, size, f"m{seq}", wan)

        def emit_hops(sent_i, arr_i, attempt):
            if with_hops:
                ledger = _draw_ledger(draw, sent_i, arr_i)
                events.append((sent_i / 16.0, "hops",
                               args + (seq, arr_i / 16.0, ledger,
                                       relay, attempt)))

        events.append((t0, "send", args + (seq,)))
        if fate == "drop":
            events.append((t0, "drop", args + (seq,)))
            continue
        if fate in ("drop_retx", "drop_retx_reorder"):
            events.append((t0, "drop", args + (seq,)))
            tri = t0i + draw(st.integers(min_value=1, max_value=64))
            attempt = 1
            events.append((tri / 16.0, "send", args + (seq,)))
            if draw(st.booleans()):
                # Second copy lost too; a further retransmission carries.
                events.append((tri / 16.0, "drop", args + (seq,)))
                tri += draw(st.integers(min_value=1, max_value=64))
                attempt = 2
                events.append((tri / 16.0, "send", args + (seq,)))
            deliver_i = tri + fli
            emit_hops(tri, deliver_i, attempt)
            events.append((deliver_i / 16.0, "deliver", args + (seq,)))
            if fate == "drop_retx_reorder":
                gapi = draw(st.integers(min_value=1, max_value=64))
                # Duplicate delivery of an earlier (slow) copy ...
                events.append(((deliver_i + gapi) / 16.0, "deliver",
                               args + (seq,)))
                # ... and a spurious retransmission after delivery (the
                # ack was itself lost or reordered).
                spur_i = deliver_i + 2 * gapi
                events.append((spur_i / 16.0, "send", args + (seq,)))
                emit_hops(spur_i, spur_i + fli, attempt + 1)
            continue
        emit_hops(t0i, t0i + fli, 0)
        if fate == "retransmit":
            tri = t0i + draw(st.integers(min_value=1, max_value=64))
            events.append((tri / 16.0, "send", args + (seq,)))
            emit_hops(tri, tri + fli, 1)
        deliver_at = t0 + flight
        events.append((deliver_at, "deliver", args + (seq,)))
        if fate == "dup":
            td = deliver_at + draw(st.integers(min_value=1,
                                               max_value=64)) / 16.0
            events.append((td, "deliver", args + (seq,)))

    # Stable sort by time: simultaneous events keep their emission order,
    # which preserves send-before-deliver.
    events.sort(key=lambda ev: ev[0])
    return events


def replay(events, sink):
    ops = {
        "send": sink.message_sent,
        "deliver": sink.message_delivered,
        "drop": sink.message_dropped,
    }
    for time, op, args in events:
        if op == "hops":
            src, dst, size, tag, wan, sq, arr, ledger, relay, att = args
            sink.message_hops(time, src, dst, size, tag, wan, sq, arr,
                              ledger, relay_hop=relay, arq_attempt=att)
        else:
            src, dst, size, tag, wan, sq = args
            ops[op](time, src, dst, size, tag, wan, seq=sq)
    return sink


@given(schedules())
@settings(**COMMON)
def test_hop_ledgers_consistent_with_events(events):
    """Recorded ledgers stay internally consistent under fault fates.

    Every hop event's ledger tiles exactly from its send time to its
    arrival (the fabric's contract), every wire copy of a retransmitted
    id carries a distinct (seq, arrival) key, and the ledger lookup
    table resolves each key to the first-recorded copy.
    """
    batch = replay(events, Tracer())

    for ev in batch.hops:
        assert ev.hops, "hop event with an empty ledger"
        assert ev.hops[0].enqueue == ev.time
        assert max(h.arrive for h in ev.hops) == ev.arrival
        assert ev.wire_time == ev.arrival - ev.time
        for h in ev.hops:
            assert h.enqueue <= h.dequeue <= h.arrive
            assert h.ser_s <= h.arrive - h.dequeue
            assert h.queue_s >= 0.0 and h.total_s >= 0.0

    ledgers = batch.hop_ledgers()
    for ev in batch.hops:
        assert (ev.seq, ev.arrival) in ledgers
    # Dropped copies never stamp a ledger: each hop event pairs with a
    # send at the same instant that was not dropped at emission time.
    sends = {(ev.time, ev.src_pe, ev.dst_pe, ev.seq)
             for ev in batch.messages if ev.kind == "send"}
    for ev in batch.hops:
        assert (ev.time, ev.src_pe, ev.dst_pe, ev.seq) in sends
