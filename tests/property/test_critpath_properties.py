"""The attribution invariant: components sum exactly to step wall time.

:func:`repro.obs.critpath.per_step_attribution` claims its components
(compute, relay overhead, the wire-level WAN decomposition —
propagation / bandwidth serialization / stripe pacing / device queue —
queueing/serialization, retransmit stall) *partition* each step window
— the backward walk emits contiguous clipped segments, so their
durations telescope to exactly the window's length.  Hypothesis
generates randomized causally-consistent runs — multi-PE span chains,
driver roots, WAN and local messages, hop ledgers shaped like flat,
hierarchical (relay spans) and striped (multi-chunk stream) chains,
drops, retransmissions, reordered deliveries, queue gaps, pre-causal
legacy events — records them into a batch Tracer, and checks the
invariant on arbitrary step boundaries.

Times live on a 1/16 grid, so every duration and subtraction is exact
in binary floating point and the invariant can be asserted *exactly*
(residual ``== 0.0``), not approximately.

The latency-masking model closes the module: ``masked_step_time`` is
flat at ``T0`` up to ``L = T0·(1 − 1/v)/k`` and non-decreasing in
``L``, and the advisor's recommended degree is the smallest ``v`` that
masks ``L``.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.network.hops import HopSpan
from repro.obs.critpath import (
    COMPONENTS,
    WIRE_COMPONENTS,
    CausalGraph,
    masked_step_time,
    per_step_attribution,
    summarize_attribution,
)
from repro.obs.objview import _recommended_degree
from repro.sim.trace import Tracer

COMMON = dict(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow])


def _draw_wan_ledger(draw, sent_i, arr_i):
    """A chain-shaped WAN hop ledger on the 1/16 grid.

    A delay-filter span first (the artificial-latency device), then the
    transport: either one plain wire span, or 1-3 striped stream chunks
    whose slowest chunk lands exactly at the arrival — the three chain
    shapes the Figure-3c variants produce.
    """
    cut = draw(st.integers(min_value=sent_i, max_value=arr_i))
    spans = []
    if cut > sent_i:
        spans.append(HopSpan(
            device="delay", link="delay",
            kind=draw(st.sampled_from(("propagation", "device_queue"))),
            enqueue=sent_i / 16.0, dequeue=sent_i / 16.0,
            arrive=cut / 16.0))
    if draw(st.booleans()):     # plain (flat/hierarchical) wire hop
        dq = draw(st.integers(min_value=cut, max_value=arr_i))
        ser = draw(st.integers(min_value=0, max_value=arr_i - dq))
        spans.append(HopSpan(
            device="wan", link="wan", kind="wire",
            enqueue=cut / 16.0, dequeue=dq / 16.0, arrive=arr_i / 16.0,
            ser_s=ser / 16.0,
            queue_depth=draw(st.integers(min_value=0, max_value=4))))
    else:                       # striped: slowest chunk defines arrival
        n_chunks = draw(st.integers(min_value=1, max_value=3))
        arrivals = [arr_i] + draw(st.lists(
            st.integers(min_value=cut, max_value=arr_i),
            min_size=n_chunks - 1, max_size=n_chunks - 1))
        for j, aj in enumerate(arrivals):
            dq = draw(st.integers(min_value=cut, max_value=aj))
            ser = draw(st.integers(min_value=0, max_value=aj - dq))
            spans.append(HopSpan(
                device=f"wan/s{j}", link="wan", kind="stream",
                enqueue=cut / 16.0, dequeue=dq / 16.0, arrive=aj / 16.0,
                ser_s=ser / 16.0,
                queue_depth=draw(st.integers(min_value=0, max_value=4)),
                stream=j))
    return tuple(spans)


@st.composite
def causal_runs(draw):
    """A random causally-consistent run plus candidate step boundaries.

    Mirrors what the engine guarantees: per-PE spans never overlap; a
    span triggered by a message starts at or after both its delivery
    and its same-PE predecessor's end; messages are sent when their
    causal parent finishes (outbox flush at busy-interval end); drops
    precede retransmissions; retransmitted ids keep one delivery.
    """
    n_pes = draw(st.integers(min_value=1, max_value=3))
    n_spans = draw(st.integers(min_value=1, max_value=16))
    tracer = Tracer()
    pe_clock = [0.0] * n_pes
    spans = []          # (sid, pe, start, end) in creation order
    seq = 0

    for sid in range(n_spans):
        pe = draw(st.integers(min_value=0, max_value=n_pes - 1))
        trigger = None
        parent = None
        delivered = None

        kind = draw(st.sampled_from(
            ["root", "untriggered"] + (["caused"] * 4 if spans else [])))
        if kind != "untriggered":
            trigger = seq
            seq += 1
            if kind == "caused":
                psid, ppe, _pstart, pend = spans[
                    draw(st.integers(min_value=0, max_value=len(spans) - 1))]
                parent = psid
                src_pe, first_send = ppe, pend
            else:   # driver-originated root message
                src_pe = draw(st.integers(min_value=0, max_value=n_pes - 1))
                first_send = draw(st.integers(min_value=0,
                                              max_value=64)) / 16.0
            wan = draw(st.booleans())
            tag = f"m{trigger}"
            sends = [first_send]
            n_retx = draw(st.integers(min_value=0, max_value=2))
            for _ in range(n_retx):
                # Each lost copy is dropped, then retransmitted later.
                tracer.message_dropped(sends[-1], src_pe, pe, 8, tag, wan,
                                       seq=trigger, cause=parent)
                sends.append(sends[-1]
                             + draw(st.integers(min_value=1,
                                                max_value=32)) / 16.0)
            flight = draw(st.integers(min_value=1, max_value=64)) / 16.0
            delivered = sends[-1] + flight
            for t in sends:
                tracer.message_sent(t, src_pe, pe, 8, tag, wan,
                                    seq=trigger, cause=parent)
            tracer.message_delivered(delivered, src_pe, pe, 8, tag, wan,
                                     seq=trigger, cause=parent)
            if wan and draw(st.booleans()):
                # The fabric stamps a hop ledger on the carrying copy.
                tracer.message_hops(
                    sends[-1], src_pe, pe, 8, tag, True, trigger,
                    delivered,
                    _draw_wan_ledger(draw, int(sends[-1] * 16),
                                     int(delivered * 16)))
            if draw(st.booleans()):
                # Duplicate delivery of a slower copy, reordered behind.
                tracer.message_delivered(
                    delivered + draw(st.integers(min_value=1,
                                                 max_value=32)) / 16.0,
                    src_pe, pe, 8, tag, wan, seq=trigger, cause=parent)

        floor = max(pe_clock[pe], delivered or 0.0)
        queue_gap = draw(st.integers(min_value=0, max_value=8)) / 16.0
        start = floor + queue_gap
        duration = draw(st.integers(min_value=1, max_value=32)) / 16.0
        end = start + duration
        chare, entry_name = draw(st.sampled_from(
            [("C", "a"), ("C", "b"), ("<rts>", "relay")]))
        tracer.begin_execute(pe, start, chare, entry_name,
                             sid=sid, parent=parent, trigger=trigger)
        tracer.end_execute(pe, end)
        pe_clock[pe] = end
        spans.append((sid, pe, start, end))

    # Occasionally a pre-causal legacy interval (sid=None): the graph
    # must skip it without disturbing the walk.
    if draw(st.booleans()):
        pe = draw(st.integers(min_value=0, max_value=n_pes - 1))
        t = pe_clock[pe] + 1.0
        tracer.begin_execute(pe, t, "L", "legacy")
        tracer.end_execute(pe, t + 0.5)

    t_min = min(s[2] for s in spans)
    t_max = max(s[3] for s in spans)
    ticks = sorted(set(
        [int(s[2] * 16) for s in spans]
        + draw(st.lists(st.integers(min_value=int(t_min * 16),
                                    max_value=int(t_max * 16) + 32),
                        min_size=0, max_size=6))))
    boundaries = [t / 16.0 for t in ticks]
    return tracer, boundaries


@given(causal_runs())
@settings(**COMMON)
def test_components_partition_each_step_exactly(run):
    tracer, boundaries = run
    graph = CausalGraph.from_tracer(tracer)
    steps = per_step_attribution(graph, boundaries)
    assert len(steps) == max(len(boundaries) - 1, 0)
    for att in steps:
        # The headline invariant, exact on the dyadic grid.
        assert att.residual == 0.0
        assert att.total == att.wall
        for k in COMPONENTS:
            assert getattr(att, k) >= 0.0
        # The segments tile [t_start, t_end] with no gaps or overlaps.
        if att.segments:
            assert att.segments[0].start == att.t_start
            assert att.segments[-1].end == att.t_end
            for a, b in zip(att.segments, att.segments[1:]):
                assert a.end == b.start
        for seg in att.segments:
            assert seg.end > seg.start
            assert seg.kind in COMPONENTS


@given(causal_runs())
@settings(**COMMON)
def test_summary_shares_sum_to_one(run):
    tracer, boundaries = run
    graph = CausalGraph.from_tracer(tracer)
    steps = per_step_attribution(graph, boundaries)
    summary = summarize_attribution(steps)
    if summary["wall_s"] > 0:
        assert abs(sum(summary[f"{k}_share"] for k in COMPONENTS)
                   - 1.0) < 1e-9


@given(causal_runs())
@settings(**COMMON)
def test_wire_decomposition_sums_to_wan_flight(run):
    """The derived wan_flight is exactly its four wire components.

    Exact on the dyadic grid, per step and in the summary — the
    extended decomposition refines the old wan_flight bucket without
    ever inventing or losing time.
    """
    tracer, boundaries = run
    graph = CausalGraph.from_tracer(tracer)
    steps = per_step_attribution(graph, boundaries)
    for att in steps:
        assert att.wan_flight == sum(getattr(att, k)
                                     for k in WIRE_COMPONENTS)
        doc = att.to_dict()
        assert doc["wan_flight_s"] == sum(doc[f"{k}_s"]
                                          for k in WIRE_COMPONENTS)
    summary = summarize_attribution(steps)
    assert summary["wan_flight_s"] == sum(summary[f"{k}_s"]
                                          for k in WIRE_COMPONENTS)
    if summary["wall_s"] > 0:
        assert abs(summary["wan_flight_share"]
                   - sum(summary[f"{k}_share"]
                         for k in WIRE_COMPONENTS)) < 1e-9


# -- the latency-masking model ----------------------------------------------

_T0 = st.floats(min_value=1e-6, max_value=10.0)
_DEGREE = st.integers(min_value=1, max_value=4096)


@given(_T0, _DEGREE, st.integers(min_value=1, max_value=4),
       st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1,
                max_size=8))
@settings(**COMMON)
def test_masked_step_time_flat_to_the_corner_then_rising(t0, v, k,
                                                        latencies):
    lats = sorted(latencies)
    times = [masked_step_time(t0, lat, v, k) for lat in lats]
    assert times == sorted(times)          # non-decreasing in L
    assert min(times) >= t0
    corner = t0 * (1.0 - 1.0 / v) / k
    for lat, t in zip(lats, times):
        if lat <= corner:
            assert t == pytest.approx(t0, rel=1e-12)
        elif lat > corner + 1e-9 * t0:
            assert t > t0


@given(_T0, st.floats(min_value=0.0, max_value=0.999),
       st.integers(min_value=1, max_value=64))
@example(10.0, 0.9, 1)      # 1/(1 - L/C) rounds up past the exact 10
@settings(**COMMON)
def test_recommended_degree_is_the_smallest_masking_degree(c, frac, pes):
    latency = c * frac
    # Zero overhead: no grain floor caps the degree.
    total = _recommended_degree(c, latency, 0.0, pes)
    v, rest = divmod(total, pes)
    assert rest == 0 and v >= 1
    assert masked_step_time(c, latency, v) == c
    if v > 1:
        assert masked_step_time(c, latency, v - 1) > c
