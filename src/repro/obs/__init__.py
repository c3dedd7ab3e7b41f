"""Observability: metrics, trace aggregation, export, and reports.

The paper's whole argument rests on *seeing* overlap — Charm++'s
Projections tool renders the timeline that proves WAN latency is hidden
behind other objects' work.  This package is the reproduction's
Projections-grade surface:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, a pull-only
  view that reads the engine, fabric, reliable-transport and per-PE
  stat structs at snapshot time (nothing publishes into it);
* :mod:`repro.obs.export` — Chrome trace-event JSON (open the file in
  ``chrome://tracing`` or https://ui.perfetto.dev) and a JSON-lines
  structured event log, both generated from a recorded
  :class:`~repro.sim.trace.Tracer`;
* :mod:`repro.obs.report` — the latency-masking report: utilization,
  comm/compute breakdown, and the headline **masked-latency fraction**
  (share of WAN in-flight time during which the destination PE was
  busy), read from the run's streaming
  :class:`~repro.sim.trace.TraceAggregator`;
* :mod:`repro.obs.critpath` — causal critical-path analysis: the step
  DAG, per-step latency attribution (compute / WAN flight / queueing /
  retransmit stall, summing exactly to the step's wall time), and the
  knee analyzer predicting Figure 3's knee from one low-latency run;
* :mod:`repro.obs.timeseries` — fixed-memory virtual-time telemetry:
  ring-buffer :class:`TimeSeries` with 2x downsampling and the
  :class:`TelemetrySampler` daemon that feeds them during the run;
* :mod:`repro.obs.health` — the rule-based watchdog
  (:class:`HealthMonitor` emitting structured :class:`HealthEvent`\\ s:
  stall, retransmit storm, load imbalance, online unmasking);
* :mod:`repro.obs.ledger` — the run ledger: schema-2
  :class:`~repro.bench.trajectory.RunRecord`\\ s carrying the full
  critical-path decomposition and net/health roll-ups, appended
  flock-safe to the file the caller names;
* :mod:`repro.obs.diff` — differential analysis
  (:func:`compare_records`, ``repro compare``): aligns two ledger
  records and attributes their step-time delta to critical-path
  components *exactly* (the component deltas sum to the total delta
  with zero residual under exact arithmetic).

Everything here measures the *simulated* clock.  Host wall time is
measured from outside the library, by the span tracer in
``benchmarks/e2e/spans.py``.
"""

from repro.obs.critpath import (
    UNATTRIBUTED,
    CausalGraph,
    KneePrediction,
    PathSegment,
    StepAttribution,
    per_object_blame,
    per_step_attribution,
    predict_knee,
    render_attribution,
    render_blame,
    replay_with_latency,
    summarize_attribution,
)
from repro.obs.export import (
    chrome_trace_events,
    export_chrome_trace,
    validate_chrome_trace,
    write_event_log,
)
from repro.obs.health import (
    HealthConfig,
    HealthEvent,
    HealthMonitor,
    HealthSample,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.objview import (
    Advice,
    ObjectView,
    Suggestion,
    recommend_decomposition,
)
from repro.obs.report import (
    LatencyMaskingReport,
    build_report,
    objview_section,
)
from repro.obs.timeseries import (
    SamplingPolicy,
    TelemetrySampler,
    TimeSeries,
    render_sparkline,
)

#: Ledger/diff names resolve lazily (PEP 562): those modules import
#: repro.bench.trajectory, whose package pulls the application drivers,
#: which import repro.grid.environment, which imports *this* package —
#: an eager import here deadlocks the whole chain at startup.
_LAZY_EXPORTS = {
    "attribution_totals": "repro.obs.ledger",
    "build_run_record": "repro.obs.ledger",
    "health_rollup": "repro.obs.ledger",
    "net_rollup": "repro.obs.ledger",
    "objects_rollup": "repro.obs.ledger",
    "records_from_file": "repro.obs.ledger",
    "ComponentDelta": "repro.obs.diff",
    "RunComparison": "repro.obs.diff",
    "compare_records": "repro.obs.diff",
    "write_compare_trace": "repro.obs.diff",
}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)

__all__ = [
    "UNATTRIBUTED",
    "CausalGraph",
    "KneePrediction",
    "PathSegment",
    "StepAttribution",
    "per_object_blame",
    "render_blame",
    "per_step_attribution",
    "predict_knee",
    "render_attribution",
    "replay_with_latency",
    "summarize_attribution",
    "MetricsRegistry",
    "Advice",
    "ObjectView",
    "Suggestion",
    "recommend_decomposition",
    "chrome_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "write_event_log",
    "LatencyMaskingReport",
    "build_report",
    "objview_section",
    "HealthConfig",
    "HealthEvent",
    "HealthMonitor",
    "HealthSample",
    "SamplingPolicy",
    "TelemetrySampler",
    "TimeSeries",
    "render_sparkline",
    "attribution_totals",
    "build_run_record",
    "health_rollup",
    "net_rollup",
    "objects_rollup",
    "records_from_file",
    "ComponentDelta",
    "RunComparison",
    "compare_records",
    "write_compare_trace",
]
