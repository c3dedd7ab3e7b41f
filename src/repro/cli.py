"""Command-line interface: regenerate the paper's artefacts.

Usage (any artefact, directly from a shell)::

    python -m repro sweep {fig3,fig3c,fig4,table1,table2} [--jobs N]
                          [--no-cache] [--cache-dir DIR]
                          [--stats-out PATH] [--steps N] [--quiet]
                          [--panels P ...] [--pes P ...]
                          [--latencies MS ...] [--rows PESxOBJS ...]
    python -m repro demo   [--json]
    python -m repro inspect --view {trace,critpath,health,netview,objview}
                            [--app stencil|leanmd] [--pes N] [--objects N]
                            [--mesh N] [--latency MS] [--steps N]
                            [--loss P] [--routing flat|hierarchical]
                            [--streams N] [--top K] [--grid MS ...]
                            [--tolerance F] [--per-step] [--interval MS]
                            [--trace-out PATH] [--events-out PATH]
                            [--health-out PATH] [--ledger-out PATH]
                            [--json]
    python -m repro bench-diff [--path BENCH_critpath.json]
                               [--digest HEX | --baseline I --candidate J]
    python -m repro compare BASELINE CANDIDATE [--path FILE] [--json]
                            [--trace-out PATH] [--threshold F]

``repro sweep`` is the one way to a paper artefact (Figures 3 and 4,
Tables 1 and 2, and the Figure-3c routing panel).  It runs the
artefact's configurations through the parallel executor — ``--jobs N``
fans out over N worker processes, the content-addressed run cache
skips configurations already computed, and the rendered artefact is
bit-identical to a serial run for any worker count.  The full default
sweeps take a few minutes; ``--panels`` (fig3), ``--pes`` (fig4,
table2), ``--latencies`` (figures) and ``--rows`` (table1) reproduce a
single panel or row in seconds, and each artefact's default step count
is its ``specs_*`` builder's.  A configuration that fails is listed as
a ``FAILED`` line after the artefact, and the command exits 1.

``repro inspect`` runs one configuration and renders one view of it:
``trace`` prints the latency-masking report (utilization,
comm/compute, masked-latency fraction); ``critpath`` attributes each
step's wall time along the causal critical path (compute / WAN
in-flight / queueing / retransmit stall) and predicts the Figure-3
knee from that single run; ``health`` runs with the fixed-memory
telemetry sampler and rule-based watchdog and prints the health digest
(sparklines and fired alerts); ``netview`` is the network flight
recorder (per-link utilization, queue depths, top wire-time messages);
``objview`` is the Projections-style object view (per-chare profiles,
the object×object communication matrix, per-object critical-path
blame and the decomposition advisor's split / merge / migrate
suggestions).  Every view takes the same flags: ``--trace-out`` writes
a Chrome trace, ``--events-out`` a JSON-lines event log,
``--health-out`` appends the structured health events, and
``--ledger-out`` appends a schema-2 run ledger record to the named
file (nothing else is written).  ``repro bench-diff`` compares two
perf-trajectory records and exits non-zero on a >10 % step-time
regression; when both records are schema-2 ledger records it also
prints the per-component critical-path diff.  ``repro compare`` is the
full differential view: given two ledger records (by index into a
trajectory file, or as standalone files), it attributes the step-time
delta to critical-path components exactly, diffs the net roll-ups and
per-object blame, and can write a side-by-side Chrome trace.  Sweeps
stay text-only, matching the paper's artefacts; ``demo`` and
``inspect`` take ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from repro.bench.figures import (
    render_fig3_collectives,
    render_fig3_panel,
    render_fig4,
)
from repro.bench.sweep import (
    FIG3_LATENCIES_MS,
    FIG3_PANEL_OBJECTS,
    FIG4_LATENCIES_MS,
    PE_COUNTS,
    TABLE1_ROWS,
    specs_fig3,
    specs_fig3_collectives,
    specs_fig4,
    specs_table1,
    specs_table2,
)
from repro.bench.tables import render_table1, render_table2


def _parse_rows(values: Sequence[str]) -> Tuple[Tuple[int, int], ...]:
    rows = []
    for v in values:
        try:
            pes, objs = v.lower().split("x")
            rows.append((int(pes), int(objs)))
        except ValueError:
            raise SystemExit(
                f"row {v!r} is not of the form PESxOBJECTS (e.g. 8x64)")
    return tuple(rows)


#: The views ``repro inspect`` renders; each fills one report section.
VIEWS = ("trace", "critpath", "health", "netview", "objview")


def _validate_run(args) -> None:
    """Sanity checks for ``repro inspect`` flags."""
    if args.pes < 2 or args.pes % 2:
        raise SystemExit(f"--pes must be even and >= 2, got {args.pes}")
    if args.latency < 0:
        raise SystemExit(f"--latency must be >= 0, got {args.latency}")
    if not (0.0 <= args.loss < 1.0):
        raise SystemExit(f"--loss must be in [0, 1), got {args.loss}")
    if args.interval <= 0:
        raise SystemExit(f"--interval must be > 0, got {args.interval}")
    if args.streams < 0:
        raise SystemExit(f"--streams must be >= 0, got {args.streams}")
    if args.top < 1:
        raise SystemExit(f"--top must be >= 1, got {args.top}")
    if args.grid and min(args.grid) < 0:
        raise SystemExit(f"--grid latencies must be >= 0, got "
                         f"{min(args.grid)}")
    if args.tolerance < 1:
        raise SystemExit(f"--tolerance must be >= 1, got {args.tolerance}")


def _write_chrome_trace(env, path, report) -> None:
    """Validate and write the run's Chrome trace; note it in the report."""
    from repro.obs.export import chrome_trace, validate_chrome_trace

    doc = chrome_trace(env.tracer, env.health_events)
    validate_chrome_trace(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    report.extra["chrome_trace"] = path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Koenig & Kale (IPPS 2005): message-driven "
                    "objects masking Grid latency.")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo",
                          help="30-second latency-masking demonstration")
    demo.add_argument("--json", action="store_true",
                      help="machine-readable output (one row per run)")

    ins = sub.add_parser("inspect", help="run one configuration and "
                         "render one view of it (trace, critpath, health, "
                         "netview or objview)")
    ins.add_argument("--view", choices=VIEWS, required=True,
                     help="which report section to fill: the masking "
                          "report alone (trace), critical-path "
                          "attribution and knee (critpath), telemetry and "
                          "watchdog (health), network flight recorder "
                          "(netview) or object view and advisor (objview)")
    ins.add_argument("--app", choices=("stencil", "leanmd"),
                     default="stencil")
    ins.add_argument("--pes", type=int, default=8)
    ins.add_argument("--objects", type=int, default=64,
                     help="virtualization degree (stencil only)")
    ins.add_argument("--mesh", type=int, default=1024, metavar="N",
                     help="stencil mesh edge (NxN; Figure 3 uses 2048)")
    ins.add_argument("--latency", type=float, default=8.0,
                     help="one-way WAN latency in ms")
    ins.add_argument("--steps", type=int, default=10)
    ins.add_argument("--loss", type=float, default=0.0,
                     help="WAN loss probability; > 0 switches to the "
                          "lossy-WAN environment with the reliable "
                          "transport (retransmit-storm territory)")
    ins.add_argument("--routing", choices=("flat", "hierarchical"),
                     default=None,
                     help="collective downward routing (default: config's)")
    ins.add_argument("--streams", type=int, default=0, metavar="N",
                     help="stripe the WAN across N parallel streams "
                          "(0 = no striping)")
    ins.add_argument("--top", type=int, default=10, metavar="K",
                     help="rows listed per table (netview: top wire-time "
                          "messages; objview: objects)")
    ins.add_argument("--grid", nargs="+", type=float, default=None,
                     metavar="MS", help="critpath: hypothetical one-way "
                     "latencies to sweep in the what-if replay (default: "
                     "Figure 3's)")
    ins.add_argument("--tolerance", type=float, default=1.5,
                     help="critpath knee tolerance: largest latency with "
                          "predicted T(L) <= tolerance x baseline "
                          "(default 1.5)")
    ins.add_argument("--per-step", action="store_true",
                     help="also print the per-step critical-path "
                          "attribution table")
    ins.add_argument("--interval", type=float, default=1.0,
                     help="health: sampling interval in virtual ms")
    ins.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write a Chrome trace (causal flows, network "
                          "lanes, per-object lanes, health markers) here; "
                          "open in chrome://tracing or Perfetto")
    ins.add_argument("--events-out", default=None, metavar="PATH",
                     help="write a JSON-lines structured event log here")
    ins.add_argument("--health-out", default=None, metavar="PATH",
                     help="append structured health events here (JSONL)")
    ins.add_argument("--ledger-out", default=None, metavar="PATH",
                     help="append a schema-2 run-ledger record (full "
                          "critpath decomposition + per-object blame) "
                          "here for 'repro compare'")
    ins.add_argument("--json", action="store_true",
                     help="print the report as JSON instead of text")

    sw = sub.add_parser("sweep", help="regenerate one paper artefact "
                        "through the parallel executor with the run cache")
    sw.add_argument("target",
                    choices=("fig3", "fig3c", "fig4", "table1", "table2"),
                    help="which artefact's configurations to run "
                         "(fig3c: collective-routing comparison)")
    sw.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="worker processes (default: $REPRO_BENCH_JOBS "
                         "or 1); results are identical for any N")
    sw.add_argument("--no-cache", action="store_true",
                    help="always re-run; do not read or write the cache")
    sw.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="run-cache directory (default .repro-cache)")
    sw.add_argument("--stats-out", default=None, metavar="PATH",
                    help="write executor statistics (totals, cache hits, "
                         "wall time) as JSON here")
    sw.add_argument("--steps", type=int, default=None,
                    help="steps per run (default: the artefact's)")
    sw.add_argument("--panels", nargs="+", type=int, default=None,
                    help="fig3: subset of PE panels")
    sw.add_argument("--pes", nargs="+", type=int, default=None,
                    help="fig4/table2: subset of PE counts")
    sw.add_argument("--latencies", nargs="+", type=float, default=None,
                    help="fig3/fig4: one-way latencies in ms")
    sw.add_argument("--rows", nargs="+", default=None, metavar="PESxOBJS",
                    help="table1: subset of rows, e.g. --rows 2x16 8x64")
    sw.add_argument("--quiet", action="store_true",
                    help="suppress per-run progress lines (stderr)")

    bd = sub.add_parser("bench-diff", help="compare two perf-trajectory "
                        "records; exit 1 on >threshold regression")
    bd.add_argument("--path", default=None, metavar="FILE",
                    help="trajectory file (default BENCH_critpath.json)")
    bd.add_argument("--digest", default=None, metavar="HEX",
                    help="compare the newest record with this config "
                         "digest (default: the newest record) against "
                         "the previous record with the same digest")
    bd.add_argument("--baseline", type=int, default=None, metavar="I",
                    help="explicit baseline record index (0-based)")
    bd.add_argument("--candidate", type=int, default=None, metavar="J",
                    help="explicit candidate record index (0-based)")
    bd.add_argument("--threshold", type=float, default=None,
                    help="regression threshold as a fraction "
                         "(default 0.10)")
    bd.add_argument("--json", action="store_true",
                    help="print the comparison as JSON instead of text")

    cm = sub.add_parser("compare", help="differential run analysis: "
                        "attribute a step-time delta to critical-path "
                        "components exactly")
    cm.add_argument("baseline", metavar="BASELINE",
                    help="baseline record: an index into --path "
                         "(0-based, negatives allowed) or a JSON file "
                         "holding a record / ledger entry")
    cm.add_argument("candidate", metavar="CANDIDATE",
                    help="candidate record, same forms as BASELINE")
    cm.add_argument("--path", default=None, metavar="FILE",
                    help="trajectory/ledger file indices refer into "
                         "(default BENCH_critpath.json)")
    cm.add_argument("--threshold", type=float, default=None,
                    help="neutral band as a fraction of the baseline's "
                         "total step time (default 0.02)")
    cm.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write a side-by-side Chrome trace (one process "
                         "per run, critpath slices) here")
    cm.add_argument("--json", action="store_true",
                    help="print the comparison as JSON instead of text")
    return parser


def cmd_demo(args, out) -> None:
    from repro.apps.stencil import StencilApp
    from repro.grid import artificial_latency_env
    from repro.units import ms

    as_json = getattr(args, "json", False)
    rows = []
    if not as_json:
        print("Latency masking in 4 runs (stencil, 8 PEs over two clusters):",
              file=out)
    for objects in (8, 128):
        for latency in (0.0, 8.0):
            env = artificial_latency_env(8, ms(latency))
            app = StencilApp(env, mesh=(1024, 1024), objects=objects,
                             payload="modeled")
            tps = app.run(10).time_per_step_ms
            row = {"pes": 8, "objects": objects, "latency_ms": latency,
                   "time_per_step_ms": tps}
            if env.aggregator is not None:
                row["masked_fraction"] = \
                    env.aggregator.masked_latency_fraction
            rows.append(row)
            if not as_json:
                print(f"  {objects:4d} objects, {latency:4.0f} ms latency -> "
                      f"{tps:7.2f} ms/step", file=out)
    if as_json:
        json.dump({"runs": rows}, out, indent=2)
        print(file=out)
    else:
        print("8 ms of wide-area latency: exposed at 1 object/PE, hidden at "
              "16/PE.", file=out)


def _emit_ledger(args, result, env, steps_attribution, path: str,
                 objects_blame=None) -> None:
    """Append one schema-2 ledger record for an inspected run to *path*.

    Dedup is off (``append_record``'s default): A/B ledger files built
    for ``repro compare`` want both records even when the runs are
    bit-identical — the all-neutral self-compare is the CI smoke.
    """
    from repro.bench.trajectory import append_record
    from repro.obs.ledger import build_run_record

    config = {
        "experiment": args.view, "app": args.app,
        "environment": "lossy" if args.loss > 0 else "artificial",
        "pes": args.pes, "objects": args.objects,
        "latency_ms": args.latency, "steps": args.steps,
    }
    for key in ("mesh", "routing", "streams", "loss"):
        value = getattr(args, key)
        if value:
            config[key] = value
    record = build_run_record(
        name=f"{args.view}:{args.app}:{args.pes}x{args.objects}"
             f"@{args.latency:g}ms",
        config=config, result=result, env=env,
        steps_attribution=steps_attribution, objects_blame=objects_blame)
    append_record(record, path=path)


def cmd_inspect(args, out) -> None:
    from repro.grid import artificial_latency_env, lossy_wan_env
    from repro.obs.critpath import (
        CausalGraph,
        per_object_blame,
        per_step_attribution,
        predict_knee,
        render_attribution,
        summarize_attribution,
    )
    from repro.obs.export import write_event_log
    from repro.obs.objview import ObjectView, recommend_decomposition
    from repro.obs.report import (
        build_report,
        health_section,
        netview_section,
        objview_section,
    )
    from repro.obs.timeseries import SamplingPolicy
    from repro.units import ms

    _validate_run(args)
    view = args.view
    # Views and outputs that read causal spans need the critical-path
    # attribution; it and every stored-event output need full tracing.
    causal = (view in ("critpath", "objview") or args.per_step
              or args.ledger_out is not None)
    trace = (causal or view == "netview" or args.trace_out is not None
             or args.events_out is not None)
    health = view == "health"
    options = dict(
        routing=args.routing, wan_streams=args.streams, trace=trace,
        sampling=SamplingPolicy(interval=ms(args.interval))
        if health else None,
        health=health)
    if args.loss > 0:
        env = lossy_wan_env(args.pes, ms(args.latency), loss=args.loss,
                            **options)
    else:
        env = artificial_latency_env(args.pes, ms(args.latency), **options)
    t0 = env.now
    if args.app == "stencil":
        from repro.apps.stencil import StencilApp
        app = StencilApp(env, mesh=(args.mesh, args.mesh),
                         objects=args.objects, payload="modeled")
    else:
        from repro.apps.leanmd import LeanMDApp
        app = LeanMDApp(env, cells=(4, 4, 4), atoms_per_cell=16,
                        payload="modeled")
    result = app.run(args.steps)

    report = build_report(env.aggregator)
    steps = blame = None
    if causal:
        graph = CausalGraph.from_tracer(env.tracer)
        boundaries = [t0] + [t0 + float(t) for t in result.step_times]
        steps = per_step_attribution(graph, boundaries)
    if view == "critpath":
        grid_ms = args.grid if args.grid else list(FIG3_LATENCIES_MS)
        knee = predict_knee(graph, boundaries, ms(args.latency),
                            [ms(x) for x in grid_ms],
                            tolerance=args.tolerance, warmup=result.warmup)
        report.critpath = {**summarize_attribution(steps,
                                                   warmup=result.warmup),
                           "knee": knee.to_dict()}
    elif view == "health":
        report.health = health_section(env.health_events)
        report.timeseries = env.sampler.summary()
    elif view == "netview":
        report.net = netview_section(env.tracer, top=args.top)
    elif view == "objview":
        blame = per_object_blame(
            [seg for att in steps for seg in att.segments])
        objects = ObjectView.from_source(env.aggregator)
        advice = recommend_decomposition(
            objects, ms(args.latency),
            overhead_s=env.runtime.config.scheduler_overhead,
            num_pes=args.pes, steps=args.steps, blame=blame)
        report.objects = objview_section(objects, top=args.top,
                                         blame=blame, advice=advice)

    extra = report.extra
    extra["app"] = args.app
    extra["pes"] = args.pes
    if view in ("health", "netview"):
        # Only these views have always echoed the degree (objview's own
        # section is named "objects"); kept so their JSON is unchanged.
        extra["objects"] = args.objects
    extra["latency_ms"] = args.latency
    extra["steps"] = args.steps
    if args.loss > 0:
        extra["loss"] = args.loss
    if args.routing is not None:
        extra["routing"] = args.routing
    if args.streams:
        extra["wan_streams"] = args.streams
    if args.health_out is not None:
        with open(args.health_out, "a") as fh:
            for event in env.health_events:
                fh.write(json.dumps(event.to_dict()) + "\n")
        extra["events_out"] = args.health_out
    if args.trace_out is not None:
        _write_chrome_trace(env, args.trace_out, report)
    if args.events_out is not None:
        extra["event_log"] = args.events_out
        extra["event_log_lines"] = write_event_log(env.tracer,
                                                   args.events_out)
    if args.ledger_out is not None:
        _emit_ledger(args, result, env, steps, args.ledger_out,
                     objects_blame=blame)
        extra["ledger"] = args.ledger_out

    if args.json:
        doc = report.to_dict()
        if args.per_step:
            doc["per_step"] = [att.to_dict() for att in steps]
        json.dump(doc, out, indent=2)
        print(file=out)
        return
    print(f"{args.app}: {args.pes} PEs, {args.objects} objects, "
          f"{args.latency:g} ms one-way WAN"
          + (f", loss {args.loss:g}" if args.loss > 0 else "")
          + (f", routing {args.routing}" if args.routing else "")
          + (f", {args.streams} WAN streams" if args.streams else "")
          + f", {args.steps} steps", file=out)
    print(file=out)
    if view == "objview":
        _render_objview(objects, blame, advice, args.top, out)
    else:
        print(report.render(), file=out)
    if args.per_step:
        print(file=out)
        print(render_attribution(steps, warmup=result.warmup), file=out)
    if view == "critpath":
        print(file=out)
        pairs = "  ".join(
            f"{lat * 1e3:g}ms->{t * 1e3:.2f}"
            for lat, t in zip(knee.grid_s, knee.predicted_step_s))
        print(f"predicted T(L) ms/step: {pairs}", file=out)
        print(f"predicted knee: {knee.knee_s * 1e3:g} ms "
              f"(largest L with T(L) <= {knee.tolerance:g}x baseline)",
              file=out)
    elif health:
        print(file=out)
        print(env.sampler.render(), file=out)
    print(file=out)
    for key, note in (("events_out", "Health events appended to {}"),
                      ("chrome_trace", "Chrome trace written to {} (open "
                       "in chrome://tracing or https://ui.perfetto.dev)"),
                      ("event_log", "Event log written to {}"),
                      ("ledger", "Ledger record appended to {}")):
        if key in extra:
            print(note.format(extra[key]), file=out)


def _render_objview(objects, blame, advice, top: int, out) -> None:
    """Text object view: tables, blame, and the advisor's findings."""
    from repro.obs.critpath import render_blame

    print(objects.render(top=top), file=out)
    print(file=out)
    print(render_blame(blame, top=top), file=out)
    print(file=out)
    rec = advice.recommended_objects
    print("advisor: direction=" + advice.direction
          + (f", recommended objects={rec}" if rec is not None else ""),
          file=out)
    for s in advice.suggestions[:top]:
        print(f"  [{s.action.upper():7s}] {s.obj}: {s.reason} "
              f"(saves ~{s.predicted_savings_s * 1e3:.3f} ms)", file=out)
    if not advice.suggestions:
        print("  no per-object findings: the decomposition looks healthy",
              file=out)


def cmd_sweep(args, out) -> None:
    from repro.bench.cache import DEFAULT_CACHE_DIR, RunCache
    from repro.bench.executor import SweepStats, default_jobs, run_sweep

    # Each artefact's default step count is its specs_* builder's.
    steps = {} if args.steps is None else {"steps": args.steps}
    if args.target == "fig3c":
        latencies = (tuple(args.latencies) if args.latencies
                     else FIG3_LATENCIES_MS)
        specs = specs_fig3_collectives(latencies_ms=latencies, **steps)
    elif args.target == "fig3":
        panels = args.panels if args.panels else list(PE_COUNTS)
        for p in panels:
            if p not in FIG3_PANEL_OBJECTS:
                raise SystemExit(f"no Figure-3 panel for {p} PEs; valid: "
                                 f"{sorted(FIG3_PANEL_OBJECTS)}")
        latencies = (tuple(args.latencies) if args.latencies
                     else FIG3_LATENCIES_MS)
        specs = specs_fig3(panels=panels, latencies_ms=latencies, **steps)
    elif args.target == "fig4":
        pes = tuple(args.pes) if args.pes else PE_COUNTS
        latencies = (tuple(args.latencies) if args.latencies
                     else FIG4_LATENCIES_MS)
        specs = specs_fig4(pe_counts=pes, latencies_ms=latencies, **steps)
    elif args.target == "table1":
        rows = _parse_rows(args.rows) if args.rows else TABLE1_ROWS
        for pes_objs in rows:
            if pes_objs not in TABLE1_ROWS:
                raise SystemExit(f"{pes_objs} is not a Table-1 row; "
                                 f"valid: {TABLE1_ROWS}")
        specs = specs_table1(rows=rows, **steps)
    else:
        pes = tuple(args.pes) if args.pes else PE_COUNTS
        specs = specs_table2(pe_counts=pes, **steps)

    cache = None
    if not args.no_cache:
        cache = RunCache(args.cache_dir if args.cache_dir
                         else DEFAULT_CACHE_DIR)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {jobs}")
    progress = None if args.quiet else \
        (lambda line: print(line, file=sys.stderr, flush=True))
    stats = SweepStats()
    points = run_sweep(specs, jobs=jobs, cache=cache, progress=progress,
                       stats=stats)

    failed = [p for p in points if "error" in p.extra]
    if args.target == "fig3c":
        for app in ("collectives", "collectives-ampi"):
            print(render_fig3_collectives(points, app), file=out)
            print(file=out)
    elif args.target == "fig3":
        for p in panels:
            print(render_fig3_panel(points, p), file=out)
            print(file=out)
    elif args.target == "fig4":
        print(render_fig4(points), file=out)
    elif args.target == "table1":
        print(render_table1(points), file=out)
    else:
        print(render_table2(points), file=out)

    # Summary goes to stderr: stdout carries only the rendered artefact,
    # which is bit-identical for any worker count (test-enforced).
    print(f"sweep {args.target}: {stats.total} configs, "
          f"{stats.cache_hits} cached, {stats.executed} run "
          f"({stats.errors} failed) with {stats.jobs} worker(s) in "
          f"{stats.wall_s:.1f} s", file=sys.stderr)
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            json.dump(stats.to_dict(), fh, indent=1)
            fh.write("\n")
    if failed:
        for p in failed:
            print(f"FAILED {p.experiment} {p.app} pes={p.pes} "
                  f"objects={p.objects} @ {p.latency_ms:g}ms: "
                  f"{p.extra['error']}", file=out)
        raise SystemExit(1)


def cmd_bench_diff(args, out) -> None:
    from repro.bench import trajectory

    path = args.path if args.path else trajectory.DEFAULT_PATH
    records = trajectory.load_records(path)
    if not records:
        raise SystemExit(f"no trajectory records in {path}")
    if (args.baseline is None) != (args.candidate is None):
        raise SystemExit("--baseline and --candidate go together")
    if args.baseline is not None:
        try:
            pair = (records[args.baseline], records[args.candidate])
        except IndexError:
            raise SystemExit(
                f"record index out of range (have {len(records)})")
    else:
        pair = trajectory.latest_pair(records, digest=args.digest)
        if pair is None:
            what = (f"digest {args.digest}" if args.digest
                    else "the newest record's digest")
            raise SystemExit(
                f"{path}: no two records with {what} to compare")
    threshold = (args.threshold if args.threshold is not None
                 else trajectory.REGRESSION_THRESHOLD)
    cmp = trajectory.compare(pair[0], pair[1], threshold=threshold)
    # v2 ledger records carry the full critpath decomposition, so the
    # headline ratio can be *explained*: delegate to repro.obs.diff for
    # the per-component breakdown (what `repro compare` prints).
    diffed = None
    if pair[0].critpath and pair[1].critpath:
        from repro.obs.diff import compare_records

        diffed = compare_records(pair[0], pair[1])
    if args.json:
        doc = cmp.to_dict()
        if diffed is not None:
            doc["critpath_diff"] = diffed.to_dict()
        json.dump(doc, out, indent=2)
        print(file=out)
    else:
        print(cmp.render(), file=out)
        if diffed is not None:
            print(file=out)
            print(diffed.render_components(), file=out)
    if cmp.regressed:
        raise SystemExit(1)


def _resolve_compare_record(spec: str, records, path: str):
    """A compare operand: an index into *records* or a record file."""
    from repro.obs.ledger import records_from_file

    try:
        index = int(spec)
    except ValueError:
        try:
            loaded = records_from_file(spec)
        except OSError as exc:
            raise SystemExit(f"{spec!r}: not an integer index or a "
                             f"readable record file ({exc})")
        if len(loaded) != 1:
            raise SystemExit(f"{spec}: holds {len(loaded)} records; pass "
                             f"it as --path and select by index instead")
        return loaded[0]
    if records is None:
        raise SystemExit(f"no trajectory file at {path} to index into")
    try:
        return records[index]
    except IndexError:
        raise SystemExit(f"record index {index} out of range "
                         f"(have {len(records)} in {path})")


def cmd_compare(args, out) -> None:
    from repro.bench import trajectory
    from repro.obs.diff import (
        DEFAULT_THRESHOLD,
        compare_records,
        write_compare_trace,
    )

    path = args.path if args.path else trajectory.DEFAULT_PATH
    needs_index = any(_is_int(s) for s in (args.baseline, args.candidate))
    records = trajectory.load_records(path) if needs_index else None
    if needs_index and not records:
        raise SystemExit(f"no trajectory records in {path}")
    baseline = _resolve_compare_record(args.baseline, records, path)
    candidate = _resolve_compare_record(args.candidate, records, path)
    threshold = (args.threshold if args.threshold is not None
                 else DEFAULT_THRESHOLD)
    try:
        comparison = compare_records(baseline, candidate,
                                     threshold=threshold)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.trace_out is not None:
        write_compare_trace(comparison, args.trace_out)
    if args.json:
        json.dump(comparison.to_dict(), out, indent=2)
        print(file=out)
    else:
        print(comparison.render(), file=out)
        if args.trace_out is not None:
            print(f"\nSide-by-side Chrome trace written to "
                  f"{args.trace_out}", file=out)
    if comparison.verdict == "regressed":
        raise SystemExit(1)


def _is_int(spec: str) -> bool:
    try:
        int(spec)
    except ValueError:
        return False
    return True


COMMANDS = {
    "demo": cmd_demo,
    "inspect": cmd_inspect,
    "sweep": cmd_sweep,
    "bench-diff": cmd_bench_diff,
    "compare": cmd_compare,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    COMMANDS[args.command](args, out if out is not None else sys.stdout)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
