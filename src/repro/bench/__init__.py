"""Benchmark harness: sweeps, tables and figures for every paper artefact.

An artefact is ``run_sweep(specs_*(...), jobs=..., cache=...)`` rendered
by its ``render_*`` function; ``repro sweep`` runs the same path.
"""

from repro.bench.calibration import DEFAULT_CALIBRATION, Calibration
from repro.bench.figures import (
    knee_latency_ms,
    render_fig3_panel,
    render_fig4,
    render_series,
)
from repro.bench.harness import (
    DEFAULT_STEPS,
    TERAGRID_ONE_WAY_MS,
    leanmd_point,
    stencil_ampi_point,
    stencil_point,
)
from repro.bench.cache import DEFAULT_CACHE_DIR, RunCache, spec_key
from repro.bench.executor import SweepStats, default_jobs, run_sweep
from repro.bench.records import ExperimentPoint, Series, group_series
from repro.bench.specs import RunSpec
from repro.bench.sweep import (
    FIG3_LATENCIES_MS,
    FIG3_PANEL_OBJECTS,
    FIG4_LATENCIES_MS,
    PE_COUNTS,
    TABLE1_ROWS,
    specs_fig3,
    specs_fig4,
    specs_table1,
    specs_table2,
)
from repro.bench.tables import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    render_table1,
    render_table2,
    trend_agreement,
)

__all__ = [
    "ExperimentPoint",
    "Series",
    "group_series",
    "stencil_point",
    "stencil_ampi_point",
    "leanmd_point",
    "RunSpec",
    "RunCache",
    "SweepStats",
    "run_sweep",
    "default_jobs",
    "spec_key",
    "DEFAULT_CACHE_DIR",
    "specs_fig3",
    "specs_table1",
    "specs_fig4",
    "specs_table2",
    "render_table1",
    "render_table2",
    "render_fig3_panel",
    "render_fig4",
    "render_series",
    "knee_latency_ms",
    "trend_agreement",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "FIG3_PANEL_OBJECTS",
    "FIG3_LATENCIES_MS",
    "FIG4_LATENCIES_MS",
    "TABLE1_ROWS",
    "PE_COUNTS",
    "DEFAULT_STEPS",
    "TERAGRID_ONE_WAY_MS",
    "Calibration",
    "DEFAULT_CALIBRATION",
]
