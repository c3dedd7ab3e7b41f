"""End-to-end network flight recorder: netview CLI, Fig-3c link load,
relay attribution, per-link Chrome lanes, sink agreement.

The acceptance bars exercised here, on test-suite-sized configs:

* ``repro inspect --view netview`` works in text, ``--json`` (validated
  by the CI schema gate's own checker) and ``--trace-out`` modes;
* on the Figure-3c collective benchmark, hierarchical routing over
  striped WAN streams lowers the busiest WAN lane's busy time versus
  flat fan-out at **every** swept latency;
* a hierarchical multicast run attributes ``<rts>``/relay span cost to
  ``relay_overhead`` on the critical path (never possible for the
  point-to-point stencil);
* a traced run and a stats-only run of the same configuration fold
  bit-identical per-lane usage.
"""

import importlib.util
import io
import json
import pathlib

import pytest

from repro.apps.collectives import CollectiveBenchApp
from repro.cli import main
from repro.grid.presets import artificial_latency_env
from repro.obs.critpath import (
    CausalGraph,
    per_step_attribution,
    summarize_attribution,
)
from repro.units import ms

PES = 8
OBJECTS = 16
PAYLOAD = 64 * 1024
STEPS = 3
LATENCIES_MS = (0.0, 8.0, 32.0)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_collectives(latency_ms, routing, streams, trace=True):
    env = artificial_latency_env(PES, ms(latency_ms), trace=trace,
                                 routing=routing, wan_streams=streams)
    t0 = env.now
    app = CollectiveBenchApp(env, objects=OBJECTS, payload_bytes=PAYLOAD)
    result = app.run(STEPS)
    boundaries = [t0] + [t0 + float(t) for t in result.step_times]
    return env, result, boundaries


def max_wan_lane_busy(env):
    links = env.aggregator.link_usage()
    wan = [u.busy_s for u in links.values() if u.wan]
    assert wan, "no WAN lanes recorded"
    return max(wan)


# -- CLI ----------------------------------------------------------------------

def test_cli_netview_text():
    code, text = run_cli(["inspect", "--view", "netview",
                          "--pes", "4", "--objects", "16",
                          "--mesh", "256", "--steps", "4",
                          "--latency", "8"])
    assert code == 0
    assert "Network flight recorder" in text
    assert "top messages by wire time" in text


def _load_schema_checker():
    path = (pathlib.Path(__file__).parents[2]
            / "benchmarks" / "check_schema.py")
    spec = importlib.util.spec_from_file_location("check_schema", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_cli_netview_json_passes_schema_gate():
    code, text = run_cli(["inspect", "--view", "netview",
                          "--pes", "4", "--objects", "16",
                          "--mesh", "256", "--steps", "4",
                          "--latency", "8", "--routing", "hierarchical",
                          "--streams", "4", "--json"])
    assert code == 0
    doc = json.loads(text)
    checker = _load_schema_checker()
    net = checker.check_net(doc["net"])   # SystemExit on any violation
    assert net["wan_crossings"] > 0
    # Striping put the stream lanes on the books.
    assert any("/s" in lane for lane in net["lanes"])


def test_cli_netview_trace_out_has_network_lanes(tmp_path):
    path = tmp_path / "netview.trace.json"
    code, _text = run_cli(["inspect", "--view", "netview",
                           "--pes", "4", "--objects", "16",
                           "--mesh", "256", "--steps", "4",
                           "--latency", "8", "--streams", "4",
                           "--trace-out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    net_slices = [e for e in doc["traceEvents"]
                  if e.get("ph") == "X" and e.get("cat") == "net"]
    assert net_slices, "no per-hop network slices in the trace"
    assert len({e["tid"] for e in net_slices}) > 1   # one lane per device
    flows = [e for e in doc["traceEvents"]
             if e.get("cat") == "net-flow"]
    starts = [e for e in flows if e["ph"] == "s"]
    finishes = [e for e in flows if e["ph"] == "f"]
    assert starts and len(starts) == len(finishes)


def test_cli_netview_rejects_bad_flags():
    for argv in (["--pes", "3"], ["--latency", "-1"], ["--streams", "-2"],
                 ["--top", "0"]):
        with pytest.raises(SystemExit):
            run_cli(["inspect", "--view", "netview"] + argv)


# -- Figure-3c link load ------------------------------------------------------

@pytest.mark.parametrize("latency_ms", LATENCIES_MS)
def test_hier_striped_reduces_busiest_wan_lane(latency_ms):
    flat_env, _res, _b = run_collectives(latency_ms, "flat", 0)
    fast_env, _res, _b = run_collectives(latency_ms, "hierarchical", 4)
    flat_busy = max_wan_lane_busy(flat_env)
    fast_busy = max_wan_lane_busy(fast_env)
    assert fast_busy < flat_busy, (
        f"{latency_ms} ms: hier+striped busiest WAN lane "
        f"{fast_busy * 1e3:.3f} ms !< flat {flat_busy * 1e3:.3f} ms")


# -- relay attribution --------------------------------------------------------

def test_relay_overhead_attributed_on_hierarchical_run():
    env, result, boundaries = run_collectives(8.0, "hierarchical", 4)
    graph = CausalGraph.from_tracer(env.tracer)
    steps = per_step_attribution(graph, boundaries)
    for att in steps:
        assert att.residual == pytest.approx(0.0, abs=1e-12)
    summary = summarize_attribution(steps, warmup=result.warmup)
    assert summary["relay_overhead_s"] > 0.0
    # The re-fan cost is real but small next to the wire time.
    assert summary["relay_overhead_s"] < summary["wan_flight_s"]


def test_stencil_run_has_no_relay_overhead():
    code, text = run_cli(["inspect", "--view", "critpath",
                          "--pes", "4", "--objects", "16",
                          "--mesh", "256", "--steps", "5",
                          "--latency", "4", "--grid", "0", "4", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["critpath"]["relay_overhead_s"] == 0.0


# -- sink agreement -----------------------------------------------------------

def test_tracer_and_aggregator_fold_identical_lanes():
    env, _result, _boundaries = run_collectives(8.0, "hierarchical", 4)
    stats_env, _result, _boundaries = run_collectives(8.0, "hierarchical", 4,
                                                      trace=False)
    batch = env.tracer.link_usage()
    live = stats_env.aggregator.link_usage()
    assert set(live) == set(batch)
    for lane, bu in batch.items():
        assert live[lane].to_dict() == bu.to_dict()   # bit-identical
        assert live[lane].depth_counts == bu.depth_counts
