#!/usr/bin/env python
"""The object view end to end: profiles, matrix, blame, advice.

Runs the paper's stencil *over-coarsely* — 16 objects on 8 PEs behind
a 16 ms WAN, a decomposition the latency-masking model says is too
coarse to hide that latency — then interrogates the run at object
granularity:

* the per-chare profile table (compute, grain quantiles, queue wait,
  WAN traffic) and the object x object communication matrix;
* per-object blame: each critical-path second charged to the chare
  that executed (or starved) it;
* the decomposition advisor's verdict: the virtualization degree the
  latency-masking model asks for (the smallest v with L + C/v <= C),
  with ranked split/merge/migrate suggestions.

Optionally writes the Chrome trace (one lane per object) next to it.

Run:  python examples/objview_demo.py [--latency 16] [--objects 16]
"""

import argparse

from repro.apps.stencil import StencilApp
from repro.grid import artificial_latency_env
from repro.obs.export import export_chrome_trace, validate_chrome_trace
from repro.obs.objview import ObjectView, recommend_decomposition
from repro.units import ms


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pes", type=int, default=8)
    parser.add_argument("--objects", type=int, default=16,
                        help="virtualization degree (16 = over-coarse "
                             "for the default latency)")
    parser.add_argument("--mesh", type=int, default=512,
                        help="stencil mesh edge (NxN)")
    parser.add_argument("--latency", type=float, default=16.0,
                        help="one-way WAN latency in ms")
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--trace-out", default=None,
                        help="also write a Chrome trace with one lane "
                             "per object here")
    args = parser.parse_args(argv)

    env = artificial_latency_env(args.pes, ms(args.latency),
                                 trace=args.trace_out is not None)
    app = StencilApp(env, mesh=(args.mesh, args.mesh),
                     objects=args.objects)
    app.run(args.steps)

    view = ObjectView.from_source(env.aggregator)
    print(view.render(top=5))

    advice = recommend_decomposition(
        env.aggregator, ms(args.latency),
        overhead_s=env.runtime.config.scheduler_overhead,
        num_pes=args.pes, steps=args.steps)
    print()
    print(f"advisor: direction={advice.direction}, "
          f"recommended degree ~{advice.recommended_objects} "
          f"(this run: {args.objects})")
    for s in advice.suggestions[:3]:
        print(f"  {s.action:<7} {s.obj}: {s.reason} "
              f"(predicted savings {s.predicted_savings_s * 1e3:.2f} ms)")

    if args.trace_out:
        doc = export_chrome_trace(env.tracer, args.trace_out)
        validate_chrome_trace(doc)
        print(f"\nChrome trace: {args.trace_out} "
              f"({len(doc['traceEvents'])} events) -- object lanes in "
              "chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
