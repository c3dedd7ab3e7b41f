"""Figure 4 reproduction: LeanMD time/step vs latency, 2-64 PEs.

Sweeps one-way latency 1-256 ms for every PE count, prints the figure,
and asserts the paper's §5.3 observations:

* 2 PEs: latency makes "almost no impact" even at 256 ms;
* 32 PEs: no visible impact up to tens of ms (the >90 objects/PE give
  the scheduler ample subset-A work to overlap with);
* scaling: the leftmost points speed up with PE count;

and the latency-masking model that explains them,
``T(L) = max(T0, 2L + T0/v)`` (:func:`repro.obs.critpath.masked_step_time`
with two WAN legs for the cell -> pair -> cell round trip, T0 the
curve's lowest-latency point and v its cells plus cell pairs per PE):
every knee equal to the measured one, every point within 15%.
"""

from __future__ import annotations

from repro.apps.leanmd import CellGrid, LeanMDApp
from repro.bench.executor import default_jobs, run_sweep
from repro.bench.figures import knee_latency_ms, render_fig4
from repro.bench.records import Series, group_series
from repro.bench.sweep import PE_COUNTS, specs_fig4
from repro.obs.critpath import masked_step_time

_GRID = CellGrid((6, 6, 6))
#: Chares of the 6x6x6 LeanMD run: 216 cells plus 3,024 cell pairs.
CHARES = _GRID.num_cells + len(_GRID.pairs())

#: Largest |model - measured| / measured of any Figure-4 point (the
#: worst measured, 13.9%, is 32 PEs at 128 ms).
MODEL_ERROR = 0.15


def test_fig4(benchmark):
    points = benchmark.pedantic(
        lambda: run_sweep(specs_fig4(), jobs=default_jobs()), rounds=1,
        iterations=1)
    print()
    print(render_fig4(points))

    by_pes = {s.label: dict(zip(s.x, s.y))
              for s in group_series(points, by="pes", y="time_per_step")}

    two = by_pes["pes=2"]
    assert two[256.0] <= 1.20 * two[1.0], \
        "2 PEs: 256 ms latency should be nearly free next to a ~4 s step"

    thirty_two = by_pes["pes=32"]
    assert thirty_two[32.0] <= 1.25 * thirty_two[1.0], \
        "32 PEs: latency up to 32 ms should be largely masked"
    assert thirty_two[256.0] > 1.5 * thirty_two[1.0], \
        "32 PEs: 256 ms cannot be hidden behind a ~250 ms step"

    # Speedup at the low-latency end (paper: reasonable scaling to 32).
    base = [by_pes[f"pes={p}"][1.0] for p in (2, 4, 8, 16, 32)]
    assert all(b > a for a, b in zip(base[1:], base[:-1])), \
        f"no speedup in leftmost points: {base}"

    # The latency-masking model predicts each curve from its first point.
    for pes, s in zip(PE_COUNTS, group_series(points, by="pes")):
        model = Series(s.label, list(s.x), [
            masked_step_time(s.y[0], lat, CHARES / pes, LeanMDApp.WAN_LEGS)
            for lat in s.x])
        assert knee_latency_ms(model) == knee_latency_ms(s), (
            f"{s.label}: model knee {knee_latency_ms(model)} ms vs "
            f"measured {knee_latency_ms(s)} ms")
        for lat, t, m in zip(s.x, s.y, model.y):
            assert abs(m - t) <= MODEL_ERROR * t, (
                f"{s.label} at {lat:g} ms: model {m:.1f} vs measured "
                f"{t:.1f} ms/step")
