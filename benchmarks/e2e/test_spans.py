"""Self-test of the span tracer and the benchmark's declared catalogue.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.apps.stencil import StencilApp  # noqa: E402
from repro.grid.presets import artificial_latency_env  # noqa: E402
from repro.units import ms  # noqa: E402


def _small_run():
    """A stencil with stats on: every layer does work."""
    env = artificial_latency_env(4, ms(2), seed=1)
    StencilApp(env, mesh=(128, 128), objects=16, payload="modeled").run(4)
    return env


def _originals():
    return {(owner, name): vars(owner)[name]
            for _layer, owner, name, _root in spans.layer_targets()}


def test_self_times_sum_to_the_root_span():
    with spans.SpanTracer() as tracer:
        _small_run()
    totals = tracer.layer_totals()
    accounted = (sum(t["self_s"] for t in totals.values())
                 + tracer.nested_spans * tracer.span_cost_s)
    assert tracer.top_level_s > 0
    assert accounted == pytest.approx(tracer.top_level_s, rel=1e-9)
    for layer in spans.LAYERS:
        assert totals[layer]["calls"] > 0, layer
    assert 0 < tracer.span_cost_s < 50e-6


def test_originals_are_restored():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.SpanTracer():
            assert _originals() != before
            raise RuntimeError("unwind")
    assert _originals() == before
    with spans.SpanTracer():
        _small_run()
    assert _originals() == before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_rep_is_bit_identical(name):
    workload = workloads.WORKLOADS[name]
    plain = workload.rep(0)()
    with spans.SpanTracer() as tracer:
        traced = workload.rep(0)()
    assert (traced.digest, traced.events) == (plain.digest, plain.events)
    assert tracer.layer_totals()["engine"]["calls"] > 0


def test_benchmark_json_matches_the_code():
    with open(HERE.parent.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER
