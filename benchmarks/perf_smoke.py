#!/usr/bin/env python
"""Perf smoke run: one small traced stencil, appended to the trajectory.

The CI perf-smoke job runs this script, then ``repro bench-diff``.  The
script executes the canonical small configuration (8 PEs, 64 objects,
512x512 mesh, 2 ms one-way WAN, 8 steps — virtual-time results are
bit-identical on any machine), appends a summary record (config digest,
median step time, masked fraction, critical-path compute share) to the
committed ``BENCH_critpath.json``, and optionally exports the Chrome
trace — causal flow events included — as a build artifact.  The diff
then compares the fresh record against the committed baseline and fails
the job on a >10 % step-time regression.

The script also measures what observability itself costs: the same
configuration is wall-clock timed with observability off, with
streaming stats (with and without the per-object fold), with
sampling telemetry, and with full tracing (best-of over round-robined
repetitions; virtual-time results are identical in every mode, only
wall time differs).  The measured ratios land in the trajectory
record's ``extra["obs_overhead"]`` and feed the EXPERIMENTS.md overhead
table; the sampler and the per-object fold each carry a hard < 5 %
marginal-cost bar.  The appended record is a schema-2 ledger record
(critical-path decomposition included), so two perf-smoke runs are
``repro compare``-able; identical re-runs dedup unless
``--keep-dups``.
The FIFO fast path (``MessageQueue`` on a deque instead of a heap) is
part of what keeps the observability-off baseline honest: queue
push/pop is O(1) with no key-tuple allocation on every message.
The record's ``extra["kernel"]`` holds the wall-clock speedups of the
numpy stencil block kernel and the LeanMD pair kernel over their
per-cell reference loops (each checked to agree with its reference).

Seeding or refreshing the committed baseline is the same command:

    PYTHONPATH=src python benchmarks/perf_smoke.py
"""

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.apps.collectives import CollectiveBenchApp      # noqa: E402
from repro.apps.stencil import StencilApp                  # noqa: E402
from repro.core import Chare, entry                        # noqa: E402
from repro.bench.harness import log_trajectory             # noqa: E402
from repro.bench.records import ExperimentPoint            # noqa: E402
from repro.bench.trajectory import DEFAULT_PATH            # noqa: E402
from repro.grid.presets import (                           # noqa: E402
    artificial_latency_env,
    single_cluster_env,
)
from repro.obs.critpath import (                           # noqa: E402
    CausalGraph,
    per_step_attribution,
    summarize_attribution,
)
from repro.obs.export import (                             # noqa: E402
    chrome_trace,
    validate_chrome_trace,
)
from repro.units import ms                                 # noqa: E402

PES = 8
OBJECTS = 64
MESH = (512, 512)
LATENCY_MS = 2.0
STEPS = 8
#: Wall-clock repetitions per observability mode (best-of, to shave
#: scheduler noise off the comparison).  The canonical config runs
#: ~40-70 ms, so single runs are noise-dominated on busy machines; the
#: per-mode minimum needs enough draws to converge on the true floor
#: before few-percent ratios mean anything.
OBS_REPS = 13

#: Ping-pong messages for the engine-only events/sec mode.
PINGPONG_ROUNDS = 2000

#: Broadcast-heavy mode: hierarchical routing over paced WAN streams,
#: exercising the relay re-fan path (RelayMsg dispatch + StripedDevice)
#: that ordinary stencil smoke never touches.
BCAST_STEPS = 8
BCAST_PAYLOAD = 256 * 1024
BCAST_WAN_STREAMS = 4


def _timed_run(**env_kwargs):
    """One wall-clock-timed run of the canonical config.

    Garbage collection is deferred during the timed region: a cycle-GC
    pause landing inside one mode but not another would dominate the
    few-percent differences this comparison is after.
    """
    env = artificial_latency_env(PES, ms(LATENCY_MS), **env_kwargs)
    app = StencilApp(env, mesh=MESH, objects=OBJECTS, payload="modeled")
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        app.run(STEPS)
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    return dt, env


def measure_obs_overhead():
    """Wall-clock cost of each observability level on the same run.

    Five modes, cheapest first:

    * ``off`` — counters only (``stats=False``): no per-event sinks;
    * ``stats_noobj`` — streaming aggregation with the per-object fold
      switched off (``object_stats=False``): the stats baseline the
      object view's marginal cost is measured against;
    * ``stats`` — the library default: streaming aggregation of every
      trace event *including* the object fold, so
      ``objects_vs_stats`` is the object view's *marginal* cost (its
      own < 5 % acceptance bar);
    * ``sampling`` — ``stats`` plus the telemetry sampler, so
      ``sampling_vs_stats`` is the sampler's *marginal* cost (the < 5 %
      acceptance bar);
    * ``full`` — everything, including the event store (``trace=True``:
      the one ``Tracer`` is the aggregator plus stored events).
    """
    modes = {
        "off": dict(stats=False),
        "stats_noobj": dict(stats=True, object_stats=False),
        "stats": dict(stats=True),
        "sampling": dict(stats=True, sampling=True),
        "full": dict(stats=True, sampling=True, trace=True),
    }
    # One untimed warmup pass first (allocator pools, code caches), then
    # round-robin the repetitions so slow machine drift (thermal, noisy
    # neighbours) hits every mode alike instead of biasing the ratios.
    for kwargs in modes.values():
        _timed_run(**kwargs)
    best = {name: None for name in modes}
    # Event count is a virtual-time invariant: identical on every
    # machine for this config, so events/wall is a clean cross-commit
    # throughput metric.
    events = None

    def _round():
        nonlocal events
        for name, kwargs in modes.items():
            dt, env = _timed_run(**kwargs)
            if best[name] is None or dt < best[name]:
                best[name] = dt
            if name == "sampling":
                events = env.engine.events_processed

    for _ in range(OBS_REPS):
        _round()
    # The per-mode minimum is a floor estimator: extra draws can only
    # lower it, never raise it, so when a gated ratio sits above its
    # bar we buy more rounds to separate heavy-tailed scheduler noise
    # (one mode unlucky for a whole batch) from a true regression — a
    # real cost increase keeps failing no matter how many draws land.
    for _ in range(4 * OBS_REPS):
        if (best["sampling"] / best["stats"] - 1.0 < 0.05
                and best["stats"] / best["stats_noobj"] - 1.0 < 0.05):
            break
        _round()
    off_s, stats_s = best["off"], best["stats"]
    noobj_s = best["stats_noobj"]
    sampling_s, full_s = best["sampling"], best["full"]
    return {
        "wall_off_s": off_s,
        "wall_stats_noobj_s": noobj_s,
        "wall_stats_s": stats_s,
        "wall_sampling_s": sampling_s,
        "wall_full_s": full_s,
        "stats_vs_off": stats_s / off_s - 1.0,
        "objects_vs_stats": stats_s / noobj_s - 1.0,
        "sampling_vs_stats": sampling_s / stats_s - 1.0,
        "full_vs_off": full_s / off_s - 1.0,
        "events": events,
        "events_per_sec_off": events / off_s,
        "events_per_sec_stats": events / stats_s,
    }


class _Pinger(Chare):
    """Half of the engine-only ping-pong pair (events/sec mode)."""

    def __init__(self):
        super().__init__()
        self.peer = None
        self.count = 0

    @entry
    def hit(self, remaining):
        self.count += 1
        if remaining:
            self.peer.hit(remaining - 1)


def measure_events_per_second(rounds=PINGPONG_ROUNDS, reps=3):
    """Engine + scheduler throughput with no application logic.

    Two chares on one PE bat a message back and forth *rounds* times:
    every event is pure runtime overhead (queue, dispatch, entry call,
    finish), so this isolates scheduler/engine hot-path cost from the
    stencil's cost-model arithmetic.
    """
    best = None
    events = 0
    count = 0
    for _ in range(reps):
        env = single_cluster_env(1, stats=False)
        rts = env.runtime
        a = rts.create_chare(_Pinger, pe=0)
        b = rts.create_chare(_Pinger, pe=0)
        rts.chare_object(a.chare_id).peer = b
        rts.chare_object(b.chare_id).peer = a
        a.hit(rounds)
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            env.run()
            dt = time.perf_counter() - t0
        finally:
            gc.enable()
        events = env.engine.events_processed
        count = (rts.chare_object(a.chare_id).count
                 + rts.chare_object(b.chare_id).count)
        if best is None or dt < best:
            best = dt
    assert count == rounds + 1, f"ping-pong dropped messages: {count}"
    return {"rounds": rounds, "events": events, "wall_s": best,
            "events_per_sec": events / best}


def measure_allocations(n=4096):
    """Per-object heap blocks for the two hottest allocation sites.

    ``sys.getallocatedblocks`` deltas while keeping *n* objects alive:
    how many heap blocks one constructed ``Message`` / one posted engine
    event costs.  Machine-independent (it counts blocks, not bytes or
    nanoseconds), so the trajectory can compare across commits.
    """
    from repro.network.message import Message
    from repro.sim.engine import Engine

    def noop():
        return None

    gc.collect()
    gc.disable()
    try:
        keep = [None] * n
        base = sys.getallocatedblocks()
        for i in range(n):
            keep[i] = Message(src_pe=0, dst_pe=1, size_bytes=64)
        per_message = (sys.getallocatedblocks() - base) / n
        del keep
        engine = Engine()
        gc.collect()
        base = sys.getallocatedblocks()
        for i in range(n):
            engine.post(float(i), noop)
        per_event = (sys.getallocatedblocks() - base) / n
    finally:
        gc.enable()
    return {"blocks_per_message": per_message,
            "blocks_per_posted_event": per_event}


def run_broadcast_heavy(log_path, dedup=True):
    """Broadcast-heavy smoke: hierarchical multicast over striped WAN.

    The canonical collective-bench config (8 PEs, 64 workers, 2 ms
    one-way WAN, 256 KB broadcasts) with hierarchical routing and four
    paced WAN streams — the Figure-3c fast path.  Appends its own
    trajectory record (experiment ``perf-smoke-bcast``) so the bench
    diff tracks the relay/striping hot path separately from the stencil
    baseline.
    """
    env = artificial_latency_env(PES, ms(LATENCY_MS),
                                 routing="hierarchical",
                                 wan_streams=BCAST_WAN_STREAMS)
    app = CollectiveBenchApp(env, objects=OBJECTS,
                             payload_bytes=BCAST_PAYLOAD)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = app.run(BCAST_STEPS)
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    wan_msgs = sum(d.messages_carried for d in env.chain.transports()
                   if "wan" in d.name)
    point = ExperimentPoint(
        experiment="perf-smoke-bcast", app="collectives",
        environment="artificial", pes=PES, objects=OBJECTS,
        latency_ms=LATENCY_MS, time_per_step=result.time_per_step,
        steps=BCAST_STEPS,
        extra={"payload_bytes": BCAST_PAYLOAD})
    log_trajectory(point, result, env, log_path, dedup=dedup,
                   extra={"wall_s": wall,
                          "wan_messages": wan_msgs,
                          "checksum": result.checksum,
                          "routing": "hierarchical",
                          "wan_streams": BCAST_WAN_STREAMS})
    print(f"perf-smoke-bcast: {result.time_per_step * 1e3:.3f} ms/step "
          f"(hier routing, {BCAST_WAN_STREAMS} WAN streams, "
          f"{wan_msgs} WAN messages, checksum {result.checksum:g}) "
          f"in {wall * 1e3:.1f} ms wall -> appended to {log_path}")
    return 0


#: Best-of reps timing the LeanMD pair kernel and its scalar loop.
LEANMD_KERNEL_REPS = 50
LEANMD_PERCELL_REPS = 3


def _leanmd_kernel_speedup():
    """Wall-clock ratio of the scalar double loop to the block kernel on
    one 64-atom face-neighbour pair of the 4^3-cell LeanMD system (best
    of a few reps each; forces agree within the property-test
    tolerances)."""
    import numpy as np

    from repro.apps.leanmd import CellGrid, build_system, pair_forces
    from repro.apps.leanmd.reference import pair_forces_percell

    system = build_system(CellGrid((4, 4, 4)), 64)
    a, b = system.cells[(0, 0, 0)], system.cells[(0, 0, 1)]
    args = (a.positions, b.positions, a.charges, b.charges, system.box,
            system.params)

    def timed(kernel, reps):
        best = float("inf")
        gc.collect()
        gc.disable()
        try:
            for _ in range(reps):
                t0 = time.perf_counter()
                out = kernel(*args)
                best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
        return best, out

    kernel_s, (f_a, f_b, pot) = timed(pair_forces, LEANMD_KERNEL_REPS)
    percell_s, (r_a, r_b, r_pot) = timed(pair_forces_percell,
                                         LEANMD_PERCELL_REPS)
    np.testing.assert_allclose(f_a, r_a, rtol=1e-10, atol=1e-8)
    np.testing.assert_allclose(f_b, r_b, rtol=1e-10, atol=1e-8)
    np.testing.assert_allclose(pot, r_pot, rtol=1e-10, atol=1e-10)
    return {"wall_kernel_s": kernel_s, "wall_percell_s": percell_s,
            "speedup": percell_s / kernel_s}


def _kernel_speedup():
    """Wall-clock ratio of the per-cell reference loop to the numpy
    block kernel on one real-payload stencil run (virtual results
    bit-equal), plus the LeanMD pair kernel's under ``leanmd``."""

    def timed(kernel):
        env = single_cluster_env(4, stats=False)
        app = StencilApp(env, mesh=(512, 512), objects=16, payload="real",
                         kernel=kernel)
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = app.run(2)
            return time.perf_counter() - t0, result.checksum
        finally:
            gc.enable()

    numpy_s, numpy_sum = timed("numpy")
    percell_s, percell_sum = timed("percell")
    assert numpy_sum == percell_sum, "kernel flavours diverged"
    return {"wall_numpy_s": numpy_s, "wall_percell_s": percell_s,
            "speedup": percell_s / numpy_s,
            "leanmd": _leanmd_kernel_speedup()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", default=DEFAULT_PATH,
                        help="trajectory file to append to")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also export the Chrome trace here")
    parser.add_argument("--events-per-second", action="store_true",
                        help="run only the engine-only ping-pong "
                             "throughput mode and print events/sec")
    parser.add_argument("--broadcast-heavy", action="store_true",
                        help="run only the broadcast-heavy collective "
                             "smoke (hierarchical routing + striped WAN)")
    parser.add_argument("--keep-dups", action="store_true",
                        help="append the trajectory record even when it "
                             "is identical to the file's last one "
                             "(default: identical re-runs dedup)")
    args = parser.parse_args(argv)

    if args.broadcast_heavy:
        return run_broadcast_heavy(args.log, dedup=not args.keep_dups)

    if args.events_per_second:
        eps = measure_events_per_second()
        allocs = measure_allocations()
        print(f"ping-pong: {eps['events']} events in "
              f"{eps['wall_s'] * 1e3:.1f} ms -> "
              f"{eps['events_per_sec']:.0f} events/sec "
              f"(best of 3, {eps['rounds']} rounds, 2 chares on 1 PE)")
        print(f"allocations: {allocs['blocks_per_message']:.2f} "
              f"blocks/Message, {allocs['blocks_per_posted_event']:.2f} "
              f"blocks/posted event")
        return 0

    env = artificial_latency_env(PES, ms(LATENCY_MS), trace=True)
    t0 = env.now
    app = StencilApp(env, mesh=MESH, objects=OBJECTS, payload="modeled")
    result = app.run(STEPS)

    graph = CausalGraph.from_tracer(env.tracer)
    boundaries = [t0] + [t0 + float(t) for t in result.step_times]
    steps = per_step_attribution(graph, boundaries, keep_segments=False)
    summary = summarize_attribution(steps, warmup=result.warmup)

    obs = measure_obs_overhead()
    eps = measure_events_per_second()
    allocs = measure_allocations()
    kern = _kernel_speedup()

    point = ExperimentPoint(
        experiment="perf-smoke", app="stencil", environment="artificial",
        pes=PES, objects=OBJECTS, latency_ms=LATENCY_MS,
        time_per_step=result.time_per_step, steps=STEPS,
        extra={"mesh": list(MESH)})
    log_trajectory(point, result, env, args.log,
                   steps_attribution=steps,
                   dedup=not args.keep_dups,
                   extra={"obs_overhead": obs,
                          "events_per_sec": eps,
                          "allocations": allocs,
                          "kernel": kern})

    print(f"perf-smoke: {result.time_per_step * 1e3:.3f} ms/step, "
          f"masked {env.aggregator.masked_latency_fraction:.3f}, "
          f"critpath compute share {summary['compute_share']:.3f} "
          f"-> appended to {args.log}")
    print(f"obs overhead (wall, best of {OBS_REPS}): "
          f"off {obs['wall_off_s'] * 1e3:.1f} ms, "
          f"stats {obs['wall_stats_s'] * 1e3:.1f} ms "
          f"({obs['stats_vs_off']:+.1%} vs off, object fold "
          f"{obs['objects_vs_stats']:+.1%} of that), "
          f"sampling {obs['wall_sampling_s'] * 1e3:.1f} ms "
          f"({obs['sampling_vs_stats']:+.1%} vs stats), "
          f"full tracing {obs['wall_full_s'] * 1e3:.1f} ms "
          f"({obs['full_vs_off']:+.1%} vs off)")
    print(f"kernels numpy vs percell: {kern['speedup']:.1f}x (stencil), "
          f"{kern['leanmd']['speedup']:.1f}x (LeanMD pair)")
    # Acceptance bars: the flight recorder + telemetry sampler at
    # ``sampling`` detail must stay under 5 % marginal wall-clock cost
    # on top of the streaming-stats baseline — and so must the always-on
    # per-object fold.
    if obs["sampling_vs_stats"] >= 0.05:
        raise SystemExit(
            f"observability overhead regression: sampling costs "
            f"{obs['sampling_vs_stats']:+.1%} over stats (bar: < +5.0%)")
    if obs["objects_vs_stats"] >= 0.05:
        raise SystemExit(
            f"observability overhead regression: the per-object fold "
            f"costs {obs['objects_vs_stats']:+.1%} over stats-only "
            f"aggregation (bar: < +5.0%)")
    print(f"throughput: {obs['events']} events -> "
          f"{obs['events_per_sec_off']:.0f} ev/s (obs off), "
          f"{obs['events_per_sec_stats']:.0f} ev/s (stats); "
          f"ping-pong {eps['events_per_sec']:.0f} ev/s; "
          f"{allocs['blocks_per_message']:.2f} blocks/Message, "
          f"{allocs['blocks_per_posted_event']:.2f} blocks/event")

    if args.out:
        doc = chrome_trace(env.tracer)
        validate_chrome_trace(doc)
        with open(args.out, "w") as fh:
            json.dump(doc, fh)
        flows = sum(1 for e in doc["traceEvents"] if e.get("ph") == "s")
        print(f"Chrome trace with {flows} causal flows -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
