"""Advisor validation against the cached Figure-3 ground truth.

The decomposition advisor derives its recommended virtualization degree
from the latency-masking model, the smallest ``v`` with
``L + C/v ≤ C``, using only one traced run's object statistics.  Ground truth is the measured Fig-3
8-PE panel: for each swept latency, the degree (of 16/64/256) with the
lowest measured time per step.  Applied at an over-coarse degree, the
advisor must point to the measured-best degree **within one grid
point** at every latency — the acceptance bar for the observability
substrate the autotuner will consume.
"""

import math

import pytest

from repro.apps.stencil import StencilApp
from repro.bench.executor import run_sweep
from repro.bench.sweep import FIG3_LATENCIES_MS, FIG3_PANEL_OBJECTS, specs_fig3
from repro.grid.presets import artificial_latency_env
from repro.obs.objview import recommend_decomposition
from repro.units import ms

PES = 8
STEPS = 10
MESH = (2048, 2048)
GRID = FIG3_PANEL_OBJECTS[PES]          # (16, 64, 256)


def nearest_grid_index(n_objects):
    """Index of the panel degree closest to *n_objects* (log distance)."""
    return min(range(len(GRID)),
               key=lambda i: abs(math.log(n_objects) - math.log(GRID[i])))


@pytest.fixture(scope="module")
def measured_best():
    """latency_ms -> grid index of the measured-best degree."""
    points = run_sweep(specs_fig3(panels=[PES], steps=STEPS))
    best = {}
    for p in points:
        cur = best.get(p.latency_ms)
        if cur is None or p.time_per_step < cur[1]:
            best[p.latency_ms] = (p.objects, p.time_per_step)
    return {lat: GRID.index(deg) for lat, (deg, _t) in best.items()}


def advise(latency_ms, degree):
    """Run one traced stencil at *degree* and ask the advisor."""
    env = artificial_latency_env(PES, ms(latency_ms))
    app = StencilApp(env, mesh=MESH, objects=degree)
    app.run(STEPS)
    return recommend_decomposition(
        env.aggregator, ms(latency_ms),
        overhead_s=env.runtime.config.scheduler_overhead,
        num_pes=PES, steps=STEPS)


def test_advisor_within_one_grid_point_at_every_latency(measured_best):
    """From the coarsest degree, the advisor lands next to the truth."""
    for lat in FIG3_LATENCIES_MS:
        advice = advise(lat, GRID[0])
        assert advice.recommended_objects is not None
        got = nearest_grid_index(advice.recommended_objects)
        want = measured_best[lat]
        assert abs(got - want) <= 1, (
            f"latency {lat} ms: advisor recommended "
            f"{advice.recommended_objects} objects (grid point "
            f"{GRID[got]}), measured best {GRID[want]}")


def test_advisor_from_every_over_coarse_degree(measured_best):
    """Every strictly over-coarse start point converges the same way."""
    for lat in FIG3_LATENCIES_MS:
        want = measured_best[lat]
        for idx in range(want):          # degrees coarser than best
            advice = advise(lat, GRID[idx])
            got = nearest_grid_index(advice.recommended_objects)
            assert abs(got - want) <= 1, (
                f"latency {lat} ms from degree {GRID[idx]}: advisor "
                f"recommended {advice.recommended_objects} (grid point "
                f"{GRID[got]}), measured best {GRID[want]}")
            # An over-coarse start never gets pushed *coarser* when the
            # panel says finer decomposition wins.
            if got < want:
                assert advice.direction in ("finer", "keep")


def test_advisor_direction_monotone_in_latency():
    """Higher latency never asks for a coarser decomposition."""
    previous = None
    for lat in FIG3_LATENCIES_MS:
        advice = advise(lat, GRID[0])
        if previous is not None:
            assert advice.recommended_objects >= previous * 0.5
            previous = max(previous, advice.recommended_objects)
        else:
            previous = advice.recommended_objects
