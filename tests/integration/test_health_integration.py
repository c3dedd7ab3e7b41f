"""End-to-end checks for the online health telemetry.

The headline acceptance test: the *online* unmasking alert must agree
with the *post-hoc* knee analysis within one grid point, across three
virtualization degrees of the Figure-3 8-PE panel.  The watchdog sees
the knee live — with fixed memory — that the offline analyzer only
finds after the sweep.
"""

import pytest

from repro.apps.stencil import run_stencil
from repro.errors import ConfigurationError
from repro.grid.presets import artificial_latency_env, lossy_wan_env
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


def test_health_without_sampling_rejected_at_construction():
    """The watchdog feeds on sampler snapshots, so health with the
    sampler switched off would build a monitor that never fires."""
    with pytest.raises(ConfigurationError, match="sampling=False"):
        artificial_latency_env(8, ms(32.0), health=True, sampling=False)
    env = artificial_latency_env(8, ms(32.0), health=True)
    assert env.sampler is not None and env.sampler.monitor is env.monitor
