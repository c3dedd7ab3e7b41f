"""End-to-end checks for the online health telemetry.

The headline acceptance test: the *online* unmasking alert must agree
with the *post-hoc* knee analysis within one grid point, across three
virtualization degrees of the Figure-3 8-PE panel.  The watchdog sees
the knee live — with fixed memory — that the offline analyzer only
finds after the sweep.
"""

import pytest

from repro.apps.stencil import run_stencil
from repro.grid.presets import artificial_latency_env, lossy_wan_env
from repro.obs.timeseries import SamplingPolicy
from repro.units import ms

MESH = (512, 512)
STEPS = 8
LATENCIES_MS = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
KNEE_TOLERANCE = 1.5


def _sweep(objects):
    """Run the latency sweep; returns (step_times, onset_index)."""
    times = []
    onset = None
    for i, lat in enumerate(LATENCIES_MS):
        env = artificial_latency_env(8, ms(lat), health=True)
        times.append(run_stencil(env, MESH, objects,
                                 steps=STEPS).time_per_step)
        unmasked = any(e.rule == "unmasking" for e in env.health_events)
        if unmasked and onset is None:
            onset = i
    return times, onset


@pytest.mark.parametrize("objects", [16, 64, 256])
def test_online_unmasking_alert_agrees_with_posthoc_knee(objects):
    times, onset = _sweep(objects)
    # Post-hoc knee: the largest latency whose step time is still within
    # KNEE_TOLERANCE of the zero-latency baseline.
    knee = max(i for i, t in enumerate(times)
               if t <= KNEE_TOLERANCE * times[0])
    assert onset is not None, "alert never fired even at 32 ms"
    assert abs(onset - knee) <= 1, (
        f"objects={objects}: online onset at index {onset} "
        f"({LATENCIES_MS[onset]} ms) vs post-hoc knee at index {knee} "
        f"({LATENCIES_MS[knee]} ms)")


def test_alert_silent_in_the_masked_regime():
    """Where the runtime hides the latency, the watchdog stays quiet."""
    env = artificial_latency_env(8, ms(0.0), health=True)
    run_stencil(env, MESH, 64, steps=STEPS)
    assert not any(e.rule == "unmasking" for e in env.health_events)


def test_lossy_wan_raises_storm_and_arq_series():
    env = lossy_wan_env(8, ms(8.0), loss=0.3, seed=7, health=True)
    run_stencil(env, (256, 256), 64, steps=4)
    rules = {e.rule for e in env.health_events}
    assert "retransmit-storm" in rules
    assert "arq.in_flight" in env.sampler.series
    assert env.sampler.series["wan.retransmit_rate"].samples > 0


def test_governor_degrades_traced_run_under_tiny_budget():
    policy = SamplingPolicy(overhead_budget=1e-9)
    env = artificial_latency_env(4, ms(2.0), trace=True, health=True,
                                 sampling=policy)
    run_stencil(env, (256, 256), 16, steps=4)
    assert env.governor.level == "counters"
    downgrades = [e for e in env.health_events if e.rule == "obs-governor"]
    assert len(downgrades) == 2
    assert not env.tracer.enabled
    assert not env.aggregator.enabled
    snap = env.metrics.snapshot()
    assert snap["obs.level"] == 2
    assert "obs.overhead_fraction" in snap


def test_governor_recovery_restores_environment_ladder():
    """Down the ladder and back: the governor's upgrade callbacks must
    re-enable exactly what the downgrade callbacks disabled — sampler
    recording and aggregation at "sampling", per-event tracing at
    "full" (because this env requested tracing)."""
    env = artificial_latency_env(4, ms(2.0), trace=True, health=True,
                                 sampling=True)
    state = {"t": 0.0, "cost": 0.0}
    gov = env.governor
    gov.clock = lambda: state["t"]
    gov._t0 = 0.0
    gov.budget = 0.10
    gov.recovery_headroom = 0.5
    gov.recovery_patience = 2
    gov.add_cost_source("test", lambda: state["cost"])

    # Overspend: two checks walk full -> sampling -> counters and the
    # environment callbacks switch off raw-event storage, then recording
    # and the whole sink.  At "sampling" the fold keeps running.
    state["t"] += 1.0
    state["cost"] += 0.9
    gov.check(0.0)
    assert gov.level == "sampling"
    assert env.aggregator is env.tracer
    assert env.tracer.enabled and not env.tracer.storing
    gov.budget = None                  # hold the level while the app runs
    run_stencil(env, (64, 64), 16, steps=2)
    gov.budget = 0.10
    assert env.tracer.pe_usage()[0].executions > 0   # still folded ...
    assert env.tracer.intervals == []                # ... but not stored
    assert env.tracer.messages == [] and env.tracer.hops == []
    state["t"] += 1.0
    state["cost"] += 0.9
    gov.check(1.0)
    assert gov.level == "counters"
    assert not env.tracer.enabled
    assert not env.sampler.recording
    assert not env.aggregator.enabled

    # Calm: cost frozen while wall time advances; after patience x 2
    # calm checks the same ladder climbs back up.
    state["t"] = 200.0
    ticks = 0
    while gov.level != "full" and ticks < 10:
        state["t"] += 50.0
        gov.check(100.0 + ticks)
        ticks += 1
    assert gov.level == "full"
    assert env.tracer.enabled          # trace was requested at build time
    assert env.tracer.storing
    assert env.sampler.recording
    assert env.aggregator.enabled
    transitions = [e.severity for e in gov.events]
    assert transitions == ["warning", "warning", "info", "info"]


def test_governor_recovery_respects_trace_not_requested():
    """An env built *without* tracing must stay untraced after a full
    recovery — the governor restores the requested level, not more."""
    env = artificial_latency_env(4, ms(2.0), health=True, sampling=True)
    assert not env.tracer.enabled
    env._obs_to_sampling()
    env._obs_to_counters()
    env._obs_recover_sampling()
    env._obs_recover_full()
    assert not env.tracer.enabled and not env.tracer.storing
    assert env.sampler.recording
    assert env.aggregator.enabled


def test_every_snapshot_reports_overhead_fraction():
    """obs.overhead_fraction is present even with observability off."""
    env = artificial_latency_env(4, ms(2.0), stats=False)
    run_stencil(env, (256, 256), 16, steps=2)
    snap = env.metrics.snapshot()
    assert "obs.overhead_fraction" in snap
    assert snap["obs.overhead_s"] == 0.0
