"""End-to-end causal tracing: attribution, knee prediction, CLI, flows.

The acceptance bar for the knee analyzer: from ONE traced low-latency
run, the predicted Figure-3 knee must land within one sweep grid point
of the knee measured by actually sweeping the latency grid, for at
least three virtualization degrees of the 8-PE panel.  (The full-size
2048^2 mesh sweep lives in EXPERIMENTS.md; here a 512^2 mesh keeps the
same compute/latency structure at test-suite cost.)
"""

import io
import json

import pytest

from repro.apps.stencil import StencilApp
from repro.cli import main
from repro.grid.presets import artificial_latency_env
from repro.obs.critpath import CausalGraph, per_step_attribution, predict_knee
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.units import ms

PES = 8
MESH = (512, 512)
STEPS = 6
GRID_MS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
TOLERANCE = 1.5


def run_traced(objects, latency_ms=0.0):
    env = artificial_latency_env(PES, ms(latency_ms), trace=True)
    t0 = env.now
    app = StencilApp(env, mesh=MESH, objects=objects, payload="modeled")
    result = app.run(STEPS)
    boundaries = [t0] + [t0 + float(t) for t in result.step_times]
    return env, result, boundaries


def measured_knee_index(objects):
    """Index into GRID_MS of the knee measured by a real latency sweep."""
    times = []
    for lat in GRID_MS:
        env = artificial_latency_env(PES, ms(lat), stats=False)
        app = StencilApp(env, mesh=MESH, objects=objects, payload="modeled")
        times.append(app.run(STEPS).time_per_step)
    knee = 0
    for i, t in enumerate(times):
        if t <= TOLERANCE * times[0]:
            knee = i
        else:
            break
    return knee


@pytest.mark.parametrize("objects", (16, 64, 256))
def test_predicted_knee_within_one_grid_point(objects):
    env, result, boundaries = run_traced(objects)
    graph = CausalGraph.from_tracer(env.tracer)
    knee = predict_knee(graph, boundaries, 0.0,
                        [ms(x) for x in GRID_MS],
                        tolerance=TOLERANCE, warmup=result.warmup)
    predicted = min(range(len(GRID_MS)),
                    key=lambda i: abs(GRID_MS[i] - knee.knee_s * 1e3))
    measured = measured_knee_index(objects)
    assert abs(predicted - measured) <= 1, (
        f"objects={objects}: predicted grid point {predicted} "
        f"({GRID_MS[predicted]} ms) vs measured {measured} "
        f"({GRID_MS[measured]} ms)")


def test_attribution_invariant_on_real_run():
    env, result, boundaries = run_traced(64, latency_ms=4.0)
    graph = CausalGraph.from_tracer(env.tracer)
    steps = per_step_attribution(graph, boundaries)
    assert len(steps) == STEPS
    for att in steps:
        assert att.residual == pytest.approx(0.0, abs=1e-12)
    # At 4 ms one-way with plenty of objects/PE the path is mostly
    # compute (that's the paper's thesis), but never more than the wall.
    total_compute = sum(att.compute for att in steps)
    total_wall = sum(att.wall for att in steps)
    assert 0.0 < total_compute <= total_wall + 1e-12


def test_zero_shift_prediction_matches_measurement():
    env, result, boundaries = run_traced(64)
    graph = CausalGraph.from_tracer(env.tracer)
    knee = predict_knee(graph, boundaries, 0.0, [0.0],
                        warmup=result.warmup)
    assert knee.baseline_s == pytest.approx(result.time_per_step, rel=1e-9)


def test_chrome_trace_contains_matched_flow_events():
    env, _result, _boundaries = run_traced(16, latency_ms=2.0)
    doc = chrome_trace(env.tracer)
    validate_chrome_trace(doc)
    starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
    finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
    assert starts, "no causal flow events in the exported trace"
    assert len(starts) == len(finishes)
    by_id = {e["id"]: e for e in starts}
    for fin in finishes:
        assert fin["cat"] == "causal"
        assert fin["bp"] == "e"
        start = by_id[fin["id"]]
        assert start["ts"] <= fin["ts"]   # cause precedes effect


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_cli_critpath_text_and_json():
    code, text = run_cli(["inspect", "--view", "critpath",
                          "--pes", "4", "--objects", "16",
                          "--mesh", "256", "--steps", "5",
                          "--latency", "0", "--grid", "0", "4", "32"])
    assert code == 0
    assert "Critical path (steady state)" in text
    assert "predicted knee" in text

    code, text = run_cli(["inspect", "--view", "critpath",
                          "--pes", "4", "--objects", "16",
                          "--mesh", "256", "--steps", "5",
                          "--latency", "0", "--grid", "0", "4", "32",
                          "--per-step", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert set(doc["critpath"]["knee"]["grid_ms"]) == {0.0, 4.0, 32.0}
    assert len(doc["per_step"]) == 5
    for step in doc["per_step"]:
        assert step["residual_s"] == pytest.approx(0.0, abs=1e-12)


def test_cli_critpath_writes_trace_with_flows(tmp_path):
    path = tmp_path / "run.trace.json"
    code, _text = run_cli(["inspect", "--view", "critpath",
                           "--pes", "4", "--objects", "16",
                           "--mesh", "256", "--steps", "5",
                           "--latency", "2", "--trace-out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert any(e.get("ph") == "s" and e.get("cat") == "causal"
               for e in doc["traceEvents"])


def log_stencil(log, latency_ms):
    """Run a small stencil and append its trajectory record to *log*."""
    from repro.bench.harness import log_trajectory
    from repro.bench.records import ExperimentPoint

    env = artificial_latency_env(4, ms(latency_ms))
    result = StencilApp(env, mesh=(256, 256), objects=16,
                        payload="modeled").run(5)
    point = ExperimentPoint(
        experiment="t", app="stencil", environment="artificial", pes=4,
        objects=16, latency_ms=latency_ms,
        time_per_step=result.time_per_step, steps=5)
    log_trajectory(point, result, env, str(log))


def test_cli_compare_newest_pair(tmp_path):
    log = tmp_path / "traj.json"
    log_stencil(log, 0.0)
    log_stencil(log, 0.0)

    # Virtual time is bit-reproducible, so the identical second run
    # deduplicates instead of bloating the trajectory.
    records = json.loads(log.read_text())
    assert len(records) == 1

    # An unchanged re-run compares neutral; fabricate the candidate
    # record (dedup only collapses *identical* runs appended by
    # log_trajectory).
    records.append(dict(records[-1]))
    log.write_text(json.dumps(records))
    code, text = run_cli(["compare", "--path", str(log)])
    assert code == 0
    assert "ratio" in text and "-> neutral" in text

    # A fabricated 2x slowdown must fail the comparison.
    records = json.loads(log.read_text())
    records[-1] = dict(records[-1], time_per_step_s=
                       records[-1]["time_per_step_s"] * 2.0)
    log.write_text(json.dumps(records))
    with pytest.raises(SystemExit) as err:
        run_cli(["compare", "--path", str(log)])
    assert err.value.code == 1


def test_cli_compare_gates_newest_record_not_newest_pair(tmp_path):
    log = tmp_path / "traj.json"
    log_stencil(log, 0.0)
    log_stencil(log, 2.0)
    a, b = json.loads(log.read_text())
    assert a["digest"] != b["digest"]

    # A, B, B, A: the newest record (A, 2x slower than the earlier A) is
    # the candidate, even though the B pair sits between them.
    slow_a = dict(a, time_per_step_s=a["time_per_step_s"] * 2.0)
    log.write_text(json.dumps([a, b, dict(b), slow_a]))
    with pytest.raises(SystemExit) as err:
        run_cli(["compare", "--path", str(log)])
    assert err.value.code == 1

    # A newest record with no earlier same-digest record has no baseline.
    log.write_text(json.dumps([b, dict(b), a]))
    with pytest.raises(SystemExit) as err:
        run_cli(["compare", "--path", str(log)])
    assert "no two records" in str(err.value.code)


def test_cli_compare_empty_log(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["compare", "--path", str(tmp_path / "missing.json")])
