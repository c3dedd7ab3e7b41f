"""Single-experiment harness.

One function per (application x environment) combination, each returning
an :class:`~repro.bench.records.ExperimentPoint`.  Benchmarks and sweeps
compose these; nothing here knows about pytest.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.apps.collectives import AmpiCollectiveBenchApp, CollectiveBenchApp
from repro.apps.leanmd import LeanMDApp
from repro.apps.stencil import AmpiStencilApp, StencilApp
from repro.bench.records import ExperimentPoint
from repro.bench.trajectory import append_record
from repro.grid.presets import artificial_latency_env, teragrid_env
from repro.units import ms

#: Default measurement length: long enough for a steady-state window,
#: short enough that full sweeps finish in minutes.
DEFAULT_STEPS = 10

#: The paper's measured one-way NCSA-ANL latency, used when artificial
#: experiments want to mirror the real grid (Tables 1 and 2).
TERAGRID_ONE_WAY_MS = 1.725

#: When this environment variable is set, every harness run appends a
#: summary record to the perf trajectory: ``1`` (or any truthy value
#: other than a path) targets ``BENCH_critpath.json`` in the current
#: directory; any other value is used as the file path.
BENCH_LOG_ENV = "REPRO_BENCH_LOG"


def _obs_extra(env) -> dict:
    """Observability digest for an ExperimentPoint's ``extra`` dict.

    Empty when the environment was built with ``stats=False``; otherwise
    the streaming aggregator's summary (utilization, comm/compute split,
    masked-latency fraction) so every benchmark row carries the overlap
    statistics alongside its time-per-step.  When the flight recorder
    saw hop ledgers, a WAN roll-up (crossings, busy/queue seconds) rides
    along under ``extra["net"]``.
    """
    # Imported here, not at module top: repro.obs.ledger imports
    # repro.bench.trajectory, whose package __init__ imports this
    # module — a top-level import would close that cycle.
    from repro.obs.ledger import net_rollup

    agg = getattr(env, "aggregator", None)
    if agg is None:
        return {}
    extra = {"obs": agg.summary()}
    net = net_rollup(env)
    if net is not None:
        extra["net"] = net
    return extra


def _median_step_s(result) -> float:
    """Median steady-state step time from a result's completion times."""
    times = np.asarray(result.step_times, dtype=np.float64)
    warmup = getattr(result, "warmup", 0)
    window = times[warmup:] if len(times) > warmup + 1 else times
    diffs = np.diff(window)
    if len(diffs) == 0:
        return float(result.time_per_step)
    return float(np.median(diffs))


def maybe_log_trajectory(point: ExperimentPoint, result, env,
                         compute_share: Optional[float] = None,
                         extra: Optional[dict] = None,
                         steps_attribution=None,
                         dedup: bool = True) -> None:
    """Append a perf-trajectory record when ``REPRO_BENCH_LOG`` is set.

    Off by default so ordinary test/benchmark runs stay side-effect
    free; ``benchmarks/conftest.py`` and the perf-smoke CI job turn it
    on.  Records are schema-2 ledger records
    (:func:`repro.obs.ledger.build_run_record`): config digest, median
    steady-state step time, masked-latency fraction, net/health
    roll-ups, the wall-clock profile when the environment ran with
    ``profile=True``, and — when the caller passes *steps_attribution*
    — the full critical-path decomposition.  *extra* entries merge into
    the record's ``extra`` dict (the perf-smoke job stores its measured
    observability overheads there).

    Identical consecutive re-runs are deduplicated by default (virtual
    time is bit-reproducible, so a true re-run adds no information);
    pass ``dedup=False`` — perf-smoke's ``--keep-dups`` — to keep every
    append.
    """
    # Function-local for the same import-cycle reason as _obs_extra.
    from repro.obs.ledger import build_run_record

    dest = os.environ.get(BENCH_LOG_ENV)
    if not dest:
        return
    path_kwargs = {} if dest == "1" else {"path": dest}
    config = {
        "experiment": point.experiment, "app": point.app,
        "environment": point.environment, "pes": point.pes,
        "objects": point.objects, "latency_ms": point.latency_ms,
        "steps": point.steps,
    }
    record = build_run_record(
        name=f"{point.app}:{point.pes}x{point.objects}"
             f"@{point.latency_ms:g}ms",
        config=config, result=result, env=env,
        steps_attribution=steps_attribution, extra=extra)
    record.time_per_step_s = _median_step_s(result)
    if record.critpath_compute_share is None:
        record.critpath_compute_share = compute_share
    append_record(record, dedup=dedup, **path_kwargs)


def stencil_point(experiment: str, pes: int, objects: int,
                  latency_ms_value: float, *,
                  mesh: Tuple[int, int] = (2048, 2048),
                  steps: int = DEFAULT_STEPS, payload: str = "modeled",
                  environment: str = "artificial",
                  seed: int = 0, kernel: str = "numpy") -> ExperimentPoint:
    """Run one stencil configuration and record the result."""
    if environment == "artificial":
        env = artificial_latency_env(pes, ms(latency_ms_value), seed=seed)
    elif environment == "teragrid":
        env = teragrid_env(pes, seed=seed)
    else:
        raise ValueError(f"unknown environment {environment!r}")
    app = StencilApp(env, mesh=mesh, objects=objects, payload=payload,
                     kernel=kernel)
    result = app.run(steps)
    point = ExperimentPoint(
        experiment=experiment, app="stencil", environment=environment,
        pes=pes, objects=objects, latency_ms=latency_ms_value,
        time_per_step=result.time_per_step, steps=steps,
        extra={"makespan": result.makespan,
               "mesh": list(mesh), "payload": payload,
               **_obs_extra(env)})
    maybe_log_trajectory(point, result, env)
    return point


def stencil_ampi_point(experiment: str, pes: int, ranks: int,
                       latency_ms_value: float, *,
                       mesh: Tuple[int, int] = (2048, 2048),
                       steps: int = DEFAULT_STEPS,
                       payload: str = "modeled",
                       seed: int = 0) -> ExperimentPoint:
    """Run the AMPI stencil variant (ranks are the virtualization)."""
    env = artificial_latency_env(pes, ms(latency_ms_value), seed=seed)
    app = AmpiStencilApp(env, mesh=mesh, ranks=ranks, payload=payload)
    result = app.run(steps)
    point = ExperimentPoint(
        experiment=experiment, app="stencil-ampi", environment="artificial",
        pes=pes, objects=ranks, latency_ms=latency_ms_value,
        time_per_step=result.time_per_step, steps=steps,
        extra={"makespan": result.makespan, "payload": payload,
               **_obs_extra(env)})
    maybe_log_trajectory(point, result, env)
    return point


def routing_variant_label(routing: str, wan_streams: int) -> str:
    """Display label for one collective-routing benchmark variant."""
    if routing == "hierarchical":
        return "hier+striped" if wan_streams > 1 else "hier"
    return "flat"


def collectives_point(experiment: str, pes: int, objects: int,
                      latency_ms_value: float, *, ampi: bool = False,
                      routing: str = "flat", wan_streams: int = 0,
                      payload_bytes: int = 256 * 1024,
                      steps: int = DEFAULT_STEPS,
                      seed: int = 0) -> ExperimentPoint:
    """Run one collective-benchmark configuration (chare or AMPI).

    *objects* is the worker count for the chare flavour and the rank
    count for the AMPI flavour.  The routing variant travels in
    ``extra["variant"]`` so the Figure-3c renderer can group by it.
    """
    env = artificial_latency_env(pes, ms(latency_ms_value), seed=seed,
                                 routing=routing, wan_streams=wan_streams)
    if ampi:
        app = AmpiCollectiveBenchApp(env, ranks=objects,
                                     payload_bytes=payload_bytes)
    else:
        app = CollectiveBenchApp(env, objects=objects,
                                 payload_bytes=payload_bytes)
    result = app.run(steps)
    wan_msgs = sum(d.messages_carried for d in env.chain.transports()
                   if "wan" in d.name)
    point = ExperimentPoint(
        experiment=experiment,
        app="collectives-ampi" if ampi else "collectives",
        environment="artificial", pes=pes, objects=objects,
        latency_ms=latency_ms_value,
        time_per_step=result.time_per_step, steps=steps,
        extra={"makespan": result.makespan,
               "variant": routing_variant_label(routing, wan_streams),
               "routing": routing, "wan_streams": wan_streams,
               "payload_bytes": payload_bytes,
               "wan_messages": wan_msgs,
               "checksum": result.checksum,
               **_obs_extra(env)})
    maybe_log_trajectory(point, result, env)
    return point


def leanmd_point(experiment: str, pes: int, latency_ms_value: float, *,
                 cells: Tuple[int, int, int] = (6, 6, 6),
                 atoms_per_cell: int = 64,
                 steps: int = DEFAULT_STEPS, payload: str = "modeled",
                 environment: str = "artificial",
                 seed: int = 0) -> ExperimentPoint:
    """Run one LeanMD configuration and record the result."""
    if environment == "artificial":
        env = artificial_latency_env(pes, ms(latency_ms_value), seed=seed)
    elif environment == "teragrid":
        env = teragrid_env(pes, seed=seed)
    else:
        raise ValueError(f"unknown environment {environment!r}")
    app = LeanMDApp(env, cells=cells, atoms_per_cell=atoms_per_cell,
                    payload=payload)
    result = app.run(steps)
    grid_cells = cells[0] * cells[1] * cells[2]
    point = ExperimentPoint(
        experiment=experiment, app="leanmd", environment=environment,
        pes=pes, objects=grid_cells, latency_ms=latency_ms_value,
        time_per_step=result.time_per_step, steps=steps,
        extra={"makespan": result.makespan, "cells": list(cells),
               "atoms_per_cell": atoms_per_cell, "payload": payload,
               **_obs_extra(env)})
    maybe_log_trajectory(point, result, env)
    return point
