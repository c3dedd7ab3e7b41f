"""Table 2 reproduction: LeanMD artificial-latency vs "real" grid runs.

Runs the paper's six PE counts in both environments, prints the table
against the published values, and asserts:

* artificial predicts real closely at <= 32 PEs (the paper: "match
  extremely well");
* the divergence, if any, is largest at 64 PEs (the paper attributes
  its 64-PE gap to WAN contention — our contended-pipe model is what
  makes the real column differ at all).
"""

from __future__ import annotations

from repro.bench.executor import default_jobs, run_sweep
from repro.bench.sweep import specs_table2
from repro.bench.tables import PAPER_TABLE2, render_table2, trend_agreement


def test_table2(benchmark):
    points = benchmark.pedantic(
        lambda: run_sweep(specs_table2(), jobs=default_jobs()), rounds=1,
        iterations=1)
    print()
    print(render_table2(points))

    art = {p.pes: p.time_per_step for p in points
           if p.environment == "artificial"}
    real = {p.pes: p.time_per_step for p in points
            if p.environment == "teragrid"}
    assert set(art) == set(real) == set(PAPER_TABLE2)

    gaps = {pes: abs(real[pes] - art[pes]) / art[pes] for pes in art}
    for pes in (2, 4, 8, 16, 32):
        assert gaps[pes] < 0.10, \
            f"{pes} PEs: artificial vs real gap {gaps[pes]:.1%}"
    # 64 PEs may diverge more (contention), but must stay sane.
    assert gaps[64] < 0.50
    assert gaps[64] >= max(gaps[p] for p in (2, 4)) - 1e-9

    score = trend_agreement(
        [p for p in points if p.environment == "artificial"],
        PAPER_TABLE2, lambda p: p.pes)
    print(f"trend agreement vs paper Table 2: {score:.0%}")
    assert score == 1.0  # strict monotone speedup, as in the paper
