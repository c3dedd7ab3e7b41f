#!/usr/bin/env python
"""Why does Figure 3 have a knee?  The critical path answers.

Runs the 8-PE stencil twice at 2 ms one-way WAN latency — once with 1
object per PE (no spare work), once with 16 per PE (the paper's
recipe) — and walks each run's causal critical path:

* at 1 object/PE the WAN shows up *on the path*: a large share of every
  step is wan_flight, and the step time tracks latency;
* at 16 objects/PE the path is almost pure compute: the same 2 ms of
  wire time is being hidden behind other objects' work, exactly the
  paper's thesis, but read off the DAG rather than inferred from
  end-to-end times.

Then the latency-masking model, T(L) = max(T0, L + T0/v), predicts the
full time-vs-latency curve of the virtualized run from that same run:
T0 is the busiest PE's work per step and v the objects per PE, and the
knee is where one WAN latency plus a seam object's own work no longer
fits inside the step.

Run:  python examples/critpath_demo.py
"""

from repro.apps.stencil import StencilApp
from repro.grid import artificial_latency_env
from repro.obs.critpath import (
    CausalGraph,
    per_step_attribution,
    predict_knee,
    render_attribution,
    summarize_attribution,
)
from repro.units import ms

PES = 8
MESH = (1024, 1024)
LATENCY_MS = 2.0
STEPS = 8
GRID_MS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def traced_run(objects, latency_ms):
    env = artificial_latency_env(PES, ms(latency_ms), trace=True)
    t0 = env.now
    app = StencilApp(env, mesh=MESH, objects=objects, payload="modeled")
    result = app.run(STEPS)
    graph = CausalGraph.from_tracer(env.tracer)
    boundaries = [t0] + [t0 + float(t) for t in result.step_times]
    return env, graph, boundaries, result


def main():
    print(f"Five-point stencil, {PES} PEs over two clusters, "
          f"{LATENCY_MS:g} ms one-way WAN\n")

    for objects in (PES, 16 * PES):
        env, graph, boundaries, result = traced_run(objects, LATENCY_MS)
        steps = per_step_attribution(graph, boundaries)
        summary = summarize_attribution(steps, warmup=result.warmup)
        print(f"--- {objects} objects ({objects // PES}/PE): "
              f"{result.time_per_step * 1e3:.2f} ms/step")
        print(render_attribution(steps, warmup=result.warmup))
        print(f"WAN share of the critical path: "
              f"{summary['wan_flight_share']:.1%}\n")

    print(f"Knee prediction from the same {LATENCY_MS:g}-ms run "
          f"(16 objects/PE), T(L) = max(T0, L + T0/v):")
    knee = predict_knee(env.aggregator, result.steps, 16,
                        StencilApp.WAN_LEGS, ms(LATENCY_MS),
                        [ms(x) for x in GRID_MS])
    for lat, t in zip(knee.grid_s, knee.predicted_step_s):
        marker = "  <- knee" if lat == knee.knee_s else ""
        print(f"  L = {lat * 1e3:4g} ms  ->  predicted "
              f"{t * 1e3:7.2f} ms/step{marker}")
    print(f"\nThe flat region ends where one WAN latency plus a seam "
          f"block's own work outgrows the step: predicted knee "
          f"{knee.knee_s * 1e3:g} ms.")


if __name__ == "__main__":
    main()
