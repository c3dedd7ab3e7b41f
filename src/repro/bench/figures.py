"""ASCII rendering of the paper's figures.

Benchmark runs print these so a terminal shows the same curves the paper
plots: execution time per step against injected one-way latency, one
line per virtualization degree (Figure 3) or per processor count
(Figure 4).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.bench.records import ExperimentPoint, Series, group_series


def render_series(series: Sequence[Series], title: str,
                  width: int = 60, height: int = 16,
                  x_label: str = "one-way latency (ms)",
                  y_label: str = "ms/step") -> str:
    """A minimal multi-line scatter/line plot in ASCII.

    X is plotted on a linear scale of the sorted distinct x values
    (matching the paper's evenly spaced latency ticks); Y is linear.
    Only finite points are plotted: a sweep's error rows carry an
    infinite time per step and are listed by the caller instead.
    """
    if not series:
        return f"{title}\n(no data)"
    finite = [[(x, y) for x, y in zip(s.x, s.y) if math.isfinite(y)]
              for s in series]
    xs = sorted({x for pts in finite for x, _ in pts})
    ys = [y for pts in finite for _, y in pts]
    if not ys:
        return f"{title}\n(no finite data)"
    y_min, y_max = min(ys), max(ys)
    if y_max <= y_min:
        y_max = y_min + 1.0
    x_pos = {x: (i * (width - 1)) // max(len(xs) - 1, 1)
             for i, x in enumerate(xs)}

    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@%&"
    for si, pts in enumerate(finite):
        mark = markers[si % len(markers)]
        for x, y in pts:
            col = x_pos[x]
            row = height - 1 - int((y - y_min) / (y_max - y_min)
                                   * (height - 1))
            grid[row][col] = mark

    lines = [title]
    for r, row in enumerate(grid):
        y_tick = y_max - r * (y_max - y_min) / (height - 1)
        lines.append(f"{y_tick:9.2f} |" + "".join(row))
    lines.append(" " * 10 + "+" + "-" * width)
    tick_line = [" "] * width
    for x in xs:
        label = f"{x:g}"
        col = min(x_pos[x], width - len(label))
        for i, ch in enumerate(label):
            tick_line[col + i] = ch
    lines.append(" " * 11 + "".join(tick_line) + f"   [{x_label}]")
    legend = "   ".join(f"{markers[i % len(markers)]}={s.label}"
                        for i, s in enumerate(series))
    lines.append(f"  y: {y_label}    {legend}")
    return "\n".join(lines)


def render_fig3_panel(points: List[ExperimentPoint], pes: int) -> str:
    """One panel of Figure 3: the given PE count's latency sweep."""
    panel = [p for p in points if p.pes == pes and p.experiment == "fig3"]
    series = group_series(panel, by="objects")
    return render_series(
        series,
        title=f"Figure 3 ({pes} PEs) - stencil time/step vs latency",
    )


def render_fig3_collectives(points: List[ExperimentPoint],
                            app: str = "collectives") -> str:
    """Figure 3c: collective time/step vs latency, one line per routing
    variant (flat / hier / hier+striped).

    The variant lives in ``extra["variant"]``, which ``group_series``
    cannot reach, so the series are assembled by hand.
    """
    panel = [p for p in points
             if p.experiment == "fig3c" and p.app == app]
    by_variant = {}
    for p in sorted(panel, key=lambda p: p.latency_ms):
        label = p.extra.get("variant", "?")
        series = by_variant.get(label)
        if series is None:
            series = by_variant[label] = Series(label=label)
        series.append(p.latency_ms, p.time_per_step_ms)
    # Fixed display order: the baseline first, then the improvements.
    order = {"flat": 0, "hier": 1, "hier+striped": 2}
    series_list = sorted(by_variant.values(),
                         key=lambda s: order.get(s.label, 99))
    return render_series(
        series_list,
        title=f"Figure 3c ({app}) - collective time/step vs latency "
              "by routing",
    )


def render_fig4(points: List[ExperimentPoint]) -> str:
    """Figure 4: LeanMD time/step vs latency, one line per PE count."""
    fig = [p for p in points if p.experiment == "fig4"]
    series = group_series(fig, by="pes", y="time_per_step")
    return render_series(
        series,
        title="Figure 4 - LeanMD time/step (s) vs latency",
        y_label="s/step",
    )


def knee_latency_ms(series: Series, tolerance: float = 1.30) -> float:
    """The largest swept latency still within *tolerance* of the
    zero/lowest-latency step time — the length of the "near-horizontal
    section" the paper reads off these plots.
    """
    if not series.x:
        return 0.0
    pairs = sorted(zip(series.x, series.y))
    base = pairs[0][1]
    knee = pairs[0][0]
    for x, y in pairs:
        if y <= tolerance * base:
            knee = x
        else:
            break
    return knee
