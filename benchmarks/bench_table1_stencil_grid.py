"""Table 1 reproduction: stencil under artificial latency vs "real" grid.

Runs the paper's 18 (PEs, objects) rows twice — once with the
deterministic 1.725 ms delay device, once on the TeraGrid WAN model
(jitter + contention) — prints the table next to the paper's published
numbers, and asserts:

* artificial predicts real (small relative gap per row, as in §5.2);
* the paper's row *orderings* are reproduced (trend agreement).
"""

from __future__ import annotations

from repro.bench.executor import default_jobs, run_sweep
from repro.bench.sweep import specs_table1
from repro.bench.tables import PAPER_TABLE1, render_table1, trend_agreement


def test_table1(benchmark):
    points = benchmark.pedantic(
        lambda: run_sweep(specs_table1(), jobs=default_jobs()), rounds=1,
        iterations=1)
    print()
    print(render_table1(points))

    art = {(p.pes, p.objects): p.time_per_step for p in points
           if p.environment == "artificial"}
    real = {(p.pes, p.objects): p.time_per_step for p in points
            if p.environment == "teragrid"}
    assert set(art) == set(real) == set(PAPER_TABLE1)

    # Artificial-latency results predict the real-grid results (the
    # paper's validation claim): within 25% per row.
    for key in art:
        gap = abs(real[key] - art[key]) / art[key]
        assert gap < 0.25, f"row {key}: artificial vs real gap {gap:.0%}"

    # Orderings match the paper's artificial column for most row pairs.
    score = trend_agreement(
        [p for p in points if p.environment == "artificial"],
        PAPER_TABLE1, lambda p: (p.pes, p.objects))
    print(f"trend agreement vs paper Table 1: {score:.0%}")
    assert score >= 0.75
