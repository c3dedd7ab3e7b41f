"""Unit tests for the causal graph, backward walk, and knee model.

Hand-built two/three-span traces where the critical path is knowable by
inspection: these pin the *labels* (which component each second lands
in), where the property suite (tests/property/test_critpath_properties)
pins only the sum invariant.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs.critpath import (
    CausalGraph,
    KneePrediction,
    masked_step_time,
    per_step_attribution,
    predict_knee,
    render_attribution,
    summarize_attribution,
)
from repro.sim.trace import TraceAggregator, Tracer


def chain_trace(wan=True, flight=2.0, retx=False):
    """PE0 computes [0,1], sends at 1; PE1 runs the triggered span.

    With ``retx`` the first copy is dropped and retransmitted at t=2,
    delivery at ``2 + flight``; otherwise delivery at ``1 + flight``.
    """
    tr = Tracer()
    tr.begin_execute(0, 0.0, "C", "produce", sid=0)
    tr.end_execute(0, 1.0)
    tr.message_sent(1.0, 0, 1, 8, "ghost", wan, seq=0, cause=0)
    if retx:
        tr.message_dropped(1.0, 0, 1, 8, "ghost", wan, seq=0, cause=0)
        tr.message_sent(2.0, 0, 1, 8, "ghost", wan, seq=0, cause=0)
        delivered = 2.0 + flight
    else:
        delivered = 1.0 + flight
    tr.message_delivered(delivered, 0, 1, 8, "ghost", wan, seq=0, cause=0)
    tr.begin_execute(1, delivered, "C", "consume", sid=1, parent=0, trigger=0)
    tr.end_execute(1, delivered + 1.0)
    return tr, delivered


class TestGraphConstruction:
    def test_disabled_tracer_rejected(self):
        # Only a Tracer stores the events a graph is built from: the
        # untraced environment's None and a stats-only aggregator refuse.
        with pytest.raises(ConfigurationError):
            CausalGraph.from_tracer(None)
        with pytest.raises(ConfigurationError):
            CausalGraph.from_tracer(TraceAggregator())

    def test_spans_messages_and_edges(self):
        tr, delivered = chain_trace()
        g = CausalGraph.from_tracer(tr)
        assert set(g.spans) == {0, 1}
        assert g.spans[1].parent == 0
        assert g.messages[0].delivered == delivered
        assert g.pe_pred(1) is None
        assert g.terminal_span(delivered).sid == 1
        assert g.ack_edges() == []

    def test_legacy_intervals_skipped(self):
        tr, _ = chain_trace()
        tr.begin_execute(2, 0.0, "L", "legacy")   # no sid
        tr.end_execute(2, 9.0)
        g = CausalGraph.from_tracer(tr)
        assert set(g.spans) == {0, 1}

    def test_ack_edges_surface(self):
        tr, _ = chain_trace()
        tr.message_sent(4.5, 1, 0, 0, "ack:0", True, seq=7, ack_for=0)
        g = CausalGraph.from_tracer(tr)
        assert [m.seq for m in g.ack_edges()] == [7]


class TestWalkLabels:
    def test_wan_wire_time_attributed_to_wan_flight(self):
        tr, delivered = chain_trace(wan=True, flight=2.0)
        g = CausalGraph.from_tracer(tr)
        [att] = per_step_attribution(g, [0.0, delivered + 1.0])
        assert att.residual == 0.0
        assert att.compute == 2.0        # produce [0,1] + consume [3,4]
        assert att.wan_flight == 2.0     # the wire
        assert att.queue_serial == 0.0
        assert att.retransmit_stall == 0.0

    def test_local_wire_time_is_queue_serial(self):
        tr, delivered = chain_trace(wan=False, flight=2.0)
        g = CausalGraph.from_tracer(tr)
        [att] = per_step_attribution(g, [0.0, delivered + 1.0])
        assert att.wan_flight == 0.0
        assert att.queue_serial == 2.0

    def test_retransmit_stall_separated_from_wire(self):
        tr, delivered = chain_trace(wan=True, flight=2.0, retx=True)
        g = CausalGraph.from_tracer(tr)
        [att] = per_step_attribution(g, [0.0, delivered + 1.0])
        assert att.residual == 0.0
        assert att.retransmit_stall == 1.0    # first send 1.0 -> resend 2.0
        assert att.wan_flight == 2.0          # resend 2.0 -> delivery 4.0
        assert att.compute == 2.0

    def test_same_pe_chain_is_compute(self):
        tr = Tracer()
        tr.begin_execute(0, 0.0, "C", "a", sid=0)
        tr.end_execute(0, 1.0)
        tr.begin_execute(0, 1.0, "C", "b", sid=1)
        tr.end_execute(0, 3.0)
        g = CausalGraph.from_tracer(tr)
        [att] = per_step_attribution(g, [0.0, 3.0])
        assert att.compute == 3.0
        assert att.residual == 0.0

    def test_window_before_any_span_is_startup(self):
        tr, delivered = chain_trace()
        g = CausalGraph.from_tracer(tr)
        [att] = per_step_attribution(g, [-2.0, delivered + 1.0])
        assert att.residual == 0.0
        assert att.queue_serial == 2.0   # the [-2, 0] startup hole

    def test_empty_window_has_zero_everything(self):
        tr, _ = chain_trace()
        g = CausalGraph.from_tracer(tr)
        [att] = per_step_attribution(g, [1.0, 1.0])
        assert att.wall == 0.0
        assert att.total == 0.0
        assert att.segments == []


class TestSummaryAndRender:
    def test_summary_shares(self):
        tr, delivered = chain_trace()
        g = CausalGraph.from_tracer(tr)
        steps = per_step_attribution(g, [0.0, delivered + 1.0])
        s = summarize_attribution(steps)
        assert s["wall_s"] == delivered + 1.0
        assert s["compute_share"] + s["wan_flight_share"] == \
            pytest.approx(1.0)

    def test_render_contains_component_columns(self):
        tr, delivered = chain_trace()
        g = CausalGraph.from_tracer(tr)
        steps = per_step_attribution(g, [0.0, delivered + 1.0])
        text = render_attribution(steps)
        assert "wall(ms)" in text and "steady state" in text


class TestKneeAnalyzer:
    def test_knee_definition(self):
        pred = KneePrediction(
            observed_latency_s=0.0,
            grid_s=[0.0, 0.001, 0.002, 0.004],
            predicted_step_s=[0.010, 0.011, 0.014, 0.020],
            tolerance=1.5, objects_per_pe=4.0, wan_legs=1)
        assert pred.baseline_s == 0.010
        assert pred.knee_s == 0.002   # 0.014 <= 1.5x, 0.020 > 1.5x
        d = pred.to_dict()
        assert d["predicted_knee_ms"] == pytest.approx(2.0)
        assert (d["objects_per_pe"], d["wan_legs"]) == (4.0, 1)

    def test_masked_step_time_flat_then_slope_k(self):
        # T0 = 8, v = 4: flat up to L = T0 (1 - 1/v) / k, then slope k.
        assert masked_step_time(8.0, 0.0, 4) == 8.0
        assert masked_step_time(8.0, 6.0, 4) == 8.0
        assert masked_step_time(8.0, 10.0, 4) == 12.0
        assert masked_step_time(8.0, 3.0, 4, wan_legs=2) == 8.0
        assert masked_step_time(8.0, 5.0, 4, wan_legs=2) == 12.0

    def test_predict_knee_monotone_grid(self):
        # Busiest PE: 12 s busy over 3 steps, so T0 = 4 s.
        agg = TraceAggregator()
        agg.begin_execute(0, 0.0, "C", "work")
        agg.end_execute(0, 12.0)
        agg.begin_execute(1, 0.0, "C", "work")
        agg.end_execute(1, 6.0)
        knee = predict_knee(agg, 3, 2.0, 1, 2.0, [4.0, 0.0, 1.0, 2.0])
        assert knee.grid_s == [0.0, 1.0, 2.0, 4.0]
        # T(L) = max(4, L + 2): flat to L = 2, then slope 1.
        assert knee.predicted_step_s == [4.0, 4.0, 4.0, 6.0]
        assert knee.knee_s == 4.0   # 6 <= 1.5 x 4
        assert knee.observed_latency_s == 2.0
        steep = predict_knee(agg, 3, 2.0, 2, 2.0, [0.0, 1.0, 2.0, 4.0])
        assert steep.predicted_step_s == [4.0, 4.0, 6.0, 10.0]
        assert steep.knee_s == 2.0
