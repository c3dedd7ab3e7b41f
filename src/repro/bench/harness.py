"""Single-experiment harness.

One function per (application x environment) combination, each returning
an :class:`~repro.bench.records.ExperimentPoint`.  Benchmarks and sweeps
compose these; nothing here knows about pytest.  The ``*_point``
functions write no file; :func:`log_trajectory` appends a run's record
to the path its caller names.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.apps.collectives import AmpiCollectiveBenchApp, CollectiveBenchApp
from repro.apps.leanmd import LeanMDApp
from repro.apps.stencil import AmpiStencilApp, StencilApp
from repro.bench.records import ExperimentPoint
from repro.bench.trajectory import RunRecord, append_record
from repro.grid.presets import artificial_latency_env, teragrid_env
from repro.units import ms

#: Default measurement length: long enough for a steady-state window,
#: short enough that full sweeps finish in minutes.
DEFAULT_STEPS = 10

#: The paper's measured one-way NCSA-ANL latency, used when artificial
#: experiments want to mirror the real grid (Tables 1 and 2).
TERAGRID_ONE_WAY_MS = 1.725


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

    if env.aggregator is None:
        return {}
    extra = {"obs": env.aggregator.summary()}
    net = net_rollup(env)
    if net is not None:
        extra["net"] = net
    return extra


def log_trajectory(point: ExperimentPoint, result, env, path: str, *,
                   extra: Optional[dict] = None,
                   steps_attribution=None,
                   dedup: bool = True) -> RunRecord:
    """Append a perf-trajectory record for one run to *path*; return it.

    The record is a schema-2 ledger record
    (:func:`repro.obs.ledger.build_run_record`): config digest, median
    steady-state step time, masked-latency fraction, net/health
    roll-ups and — when the caller passes *steps_attribution* — the
    full critical-path decomposition.  *extra* entries merge into
    the record's ``extra`` dict (the perf-smoke script stores its
    measured observability overheads there).

    Identical consecutive re-runs are deduplicated by default (virtual
    time is bit-reproducible, so a true re-run adds no information);
    pass ``dedup=False`` — perf-smoke's ``--keep-dups`` — to keep every
    append.
    """
    # Function-local for the same import-cycle reason as _obs_extra.
    from repro.obs.ledger import build_run_record

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
    append_record(record, path=path, dedup=dedup)
    return record


def stencil_point(experiment: str, pes: int, objects: int,
                  latency_ms_value: float, *,
                  mesh: Tuple[int, int] = (2048, 2048),
                  steps: int = DEFAULT_STEPS, payload: str = "modeled",
                  environment: str = "artificial",
                  seed: int = 0) -> ExperimentPoint:
    """Run one stencil configuration and record the result."""
    if environment == "artificial":
        env = artificial_latency_env(pes, ms(latency_ms_value), seed=seed)
    elif environment == "teragrid":
        env = teragrid_env(pes, seed=seed)
    else:
        raise ValueError(f"unknown environment {environment!r}")
    app = StencilApp(env, mesh=mesh, objects=objects, payload=payload)
    result = app.run(steps)
    return ExperimentPoint(
        experiment=experiment, app="stencil", environment=environment,
        pes=pes, objects=objects, latency_ms=latency_ms_value,
        time_per_step=result.time_per_step, steps=steps,
        extra={"makespan": result.makespan,
               "mesh": list(mesh), "payload": payload,
               **_obs_extra(env)})


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
    return ExperimentPoint(
        experiment=experiment, app="stencil-ampi", environment="artificial",
        pes=pes, objects=ranks, latency_ms=latency_ms_value,
        time_per_step=result.time_per_step, steps=steps,
        extra={"makespan": result.makespan, "payload": payload,
               **_obs_extra(env)})


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
    return ExperimentPoint(
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
    return ExperimentPoint(
        experiment=experiment, app="leanmd", environment=environment,
        pes=pes, objects=grid_cells, latency_ms=latency_ms_value,
        time_per_step=result.time_per_step, steps=steps,
        extra={"makespan": result.makespan, "cells": list(cells),
               "atoms_per_cell": atoms_per_cell, "payload": payload,
               **_obs_extra(env)})
