"""Figure 3 reproduction: five-point stencil vs artificial latency.

One benchmark per panel (2-64 PEs).  Each sweeps one-way latency
0-32 ms for the paper's per-panel virtualization degrees on the
2048x2048 mesh, prints the panel as an ASCII figure, and asserts the
paper's two qualitative claims:

1. the near-horizontal region is longer for higher virtualization;
2. past the knee, higher virtualization stays at-or-below lower
   virtualization (it masks more of the latency);

and the latency-masking model that explains both,
``T(L) = max(T0, L + T0/v)`` (:func:`repro.obs.critpath.masked_step_time`
with T0 the curve's lowest-latency point and v its objects per PE):
every knee equal to the measured one, every point within 8%.
"""

from __future__ import annotations

import pytest

from repro.apps.stencil import StencilApp
from repro.bench.executor import default_jobs, run_sweep
from repro.bench.figures import knee_latency_ms, render_fig3_panel
from repro.bench.records import Series, group_series
from repro.bench.sweep import FIG3_PANEL_OBJECTS, specs_fig3
from repro.obs.critpath import masked_step_time

PANELS = sorted(FIG3_PANEL_OBJECTS)

#: Largest |model - measured| / measured of any Figure-3 point (the
#: worst measured, 7.6%, is 32 PEs x 1024 objects at 8 ms).
MODEL_ERROR = 0.08

#: Worker-pool width (REPRO_BENCH_JOBS, default serial).  Results are
#: bit-identical for any value, so the assertions below are unaffected.
JOBS = default_jobs()


@pytest.mark.parametrize("pes", PANELS)
def test_fig3_panel(benchmark, pes):
    points = benchmark.pedantic(
        lambda: run_sweep(specs_fig3(panels=[pes]), jobs=JOBS), rounds=1,
        iterations=1)
    print()
    print(render_fig3_panel(points, pes))

    series = group_series([p for p in points if p.pes == pes])
    assert len(series) == 3

    # Claim 1: knees do not shrink as virtualization grows (2-PE panels
    # are flat everywhere, so knees tie at the sweep maximum there).
    knees = [knee_latency_ms(s, tolerance=1.5) for s in series]
    assert knees == sorted(knees), (
        f"{pes} PEs: flat regions {knees} not non-decreasing in "
        "virtualization")

    # Claim 2: at the largest swept latency, the highest virtualization
    # is no slower than the lowest (it masked at least as much).
    finals = [s.y[-1] for s in series]
    assert finals[-1] <= finals[0] * 1.05

    # Sanity: time/step grows (weakly) with latency for every series.
    for s in series:
        assert s.y[-1] >= s.y[0] * 0.95

    # The latency-masking model predicts each curve from its first point.
    for objects, s in zip(sorted(FIG3_PANEL_OBJECTS[pes]), series):
        model = Series(s.label, list(s.x), [
            masked_step_time(s.y[0], lat, objects / pes, StencilApp.WAN_LEGS)
            for lat in s.x])
        assert knee_latency_ms(model) == knee_latency_ms(s), (
            f"{pes} PEs, {s.label}: model knee {knee_latency_ms(model)} ms "
            f"vs measured {knee_latency_ms(s)} ms")
        for lat, t, m in zip(s.x, s.y, model.y):
            assert abs(m - t) <= MODEL_ERROR * t, (
                f"{pes} PEs, {s.label} at {lat:g} ms: model {m:.3f} vs "
                f"measured {t:.3f} ms/step")
