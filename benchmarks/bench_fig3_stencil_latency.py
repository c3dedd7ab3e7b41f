"""Figure 3 reproduction: five-point stencil vs artificial latency.

One benchmark per panel (2-64 PEs).  Each sweeps one-way latency
0-32 ms for the paper's per-panel virtualization degrees on the
2048x2048 mesh, prints the panel as an ASCII figure, and asserts the
paper's two qualitative claims:

1. the near-horizontal region is longer for higher virtualization;
2. past the knee, higher virtualization stays at-or-below lower
   virtualization (it masks more of the latency).
"""

from __future__ import annotations

import pytest

from repro.bench.executor import default_jobs, run_sweep
from repro.bench.figures import knee_latency_ms, render_fig3_panel
from repro.bench.records import group_series
from repro.bench.sweep import FIG3_PANEL_OBJECTS, specs_fig3

PANELS = sorted(FIG3_PANEL_OBJECTS)

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
