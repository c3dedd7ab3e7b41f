"""The run ledger: structured v2 records of every traced run.

PRs 2-7 gave single runs deep observability; the ledger is what makes
runs *comparable*.  Every traced run can emit one compact
:class:`~repro.bench.trajectory.RunRecord` (schema 2) carrying

* the config digest (aligning re-runs of the same configuration),
* the **full critical-path decomposition** — window totals for every
  component of :data:`repro.obs.critpath.COMPONENTS`, summed so the
  exact partition invariant survives (components total to ``wall_s``
  with ``residual_s == 0.0`` on the dyadic grids the property tests
  exercise),
* the network roll-up (``extra["net"]``: lanes, WAN crossings,
  busy/queue seconds) from the flight recorder's link fold,
* health episodes (``extra["health"]``: per-rule and per-severity
  counts from the watchdog).

A record is written only where a caller names the file: ``repro
inspect --ledger-out PATH`` and ``benchmarks/perf_smoke.py`` append it
with :func:`repro.bench.trajectory.append_record` (advisory lock,
atomic rename), and :func:`repro.bench.trajectory.load_records` reads
them back.  ``repro compare`` (:mod:`repro.obs.diff`) consumes pairs of
these records.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.bench.trajectory import RunRecord
from repro.obs.critpath import COMPONENTS, WIRE_COMPONENTS

#: Ledger records are trajectory records with this schema number.
LEDGER_SCHEMA = 2


def attribution_totals(steps) -> Dict[str, Any]:
    """Window totals of a per-step attribution, partition preserved.

    Sums each component across the given
    :class:`~repro.obs.critpath.StepAttribution` steps (all steps — no
    warmup trimming, so two runs of different lengths still diff
    honestly per step), then totals the component sums in the fixed
    :data:`~repro.obs.critpath.COMPONENTS` order.  On the dyadic grids
    of the property tests every addition is exact, so ``residual_s`` —
    the window wall time minus the component total — is exactly ``0.0``;
    on real runs it is float noise, recorded rather than hidden.
    """
    comp = {k: 0.0 for k in COMPONENTS}
    wall = 0.0
    for att in steps:
        wall += att.wall
        for k in COMPONENTS:
            comp[k] += getattr(att, k)
    out: Dict[str, Any] = {"steps": len(steps), "wall_s": wall}
    for k in COMPONENTS:
        out[f"{k}_s"] = comp[k]
    out["wan_flight_s"] = sum(comp[k] for k in WIRE_COMPONENTS)
    total = 0.0
    for k in COMPONENTS:
        total += comp[k]
    out["residual_s"] = wall - total
    return out


def net_rollup(env) -> Optional[Dict[str, Any]]:
    """WAN roll-up from the flight recorder's online link fold.

    ``None`` when the environment has no aggregator or saw no hop
    ledgers (e.g. ``stats=False`` runs, or zero-latency configs whose
    chain never stamps WAN hops).
    """
    agg = env.aggregator
    links = agg.link_usage() if agg is not None else {}
    if not links:
        return None
    wan = [u for u in links.values() if u.wan]
    return {
        "lanes": len(links),
        "wan_lanes": len(wan),
        "wan_crossings": sum(u.crossings for u in wan),
        "wan_busy_s": sum(u.busy_s for u in wan),
        "wan_queue_s": sum(u.queue_s for u in wan),
    }


def objects_rollup(env, blame=None) -> Optional[Dict[str, Any]]:
    """Per-object roll-up from the aggregator's streaming object fold.

    Compact enough to commit — totals plus the top objects by compute —
    and, when per-object critical-path *blame* is supplied
    (:func:`repro.obs.critpath.per_object_blame` output), the full
    blame mapping rides along so ``repro compare`` can diff which
    object's exposed WAN wait moved.  ``None`` when the environment
    kept no object statistics (``stats=False`` or ``object_stats=False``
    runs).
    """
    agg = env.aggregator
    fold = agg.objview if agg is not None else None
    if fold is None or not fold.profiles:
        return None
    out: Dict[str, Any] = {
        "tracked": len(fold.profiles),
        "compute_s": fold.total_compute_s(),
        "matrix_edges": len(fold.matrix),
        "top_by_compute": [
            {"obj": p.obj, "compute_s": p.compute_s,
             "executions": p.executions,
             "p95_grain_s": p.grain_quantile(0.95)}
            for p in fold.top_by_compute(5)],
    }
    if blame is not None:
        out["blame"] = {obj: dict(parts)
                        for obj, parts in sorted(blame.items())}
    return out


def health_rollup(events) -> Optional[Dict[str, Any]]:
    """Compact digest of watchdog episodes; ``None`` if none.

    Counts per rule and per severity rather than the full event list:
    the ledger is meant to stay small enough to commit, and the counts
    are what a diff cares about ("candidate fired retransmit-storm
    twice, baseline never did").
    """
    events = list(events)
    if not events:
        return None
    by_rule: Dict[str, int] = {}
    by_severity: Dict[str, int] = {}
    for e in events:
        by_rule[e.rule] = by_rule.get(e.rule, 0) + 1
        by_severity[e.severity] = by_severity.get(e.severity, 0) + 1
    return {"events": len(events), "by_rule": by_rule,
            "by_severity": by_severity}


def _median_step_s(result) -> float:
    """Median steady-state step time from a result's completion times."""
    times = [float(t) for t in result.step_times]
    warmup = result.warmup
    window = times[warmup:] if len(times) > warmup + 1 else times
    diffs = sorted(b - a for a, b in zip(window, window[1:]))
    if not diffs:
        return float(result.time_per_step)
    mid = len(diffs) // 2
    if len(diffs) % 2:
        return diffs[mid]
    return (diffs[mid - 1] + diffs[mid]) / 2.0


def build_run_record(*, name: str, config: Dict[str, Any], result, env,
                     steps_attribution=None, objects_blame=None,
                     extra: Optional[Dict[str, Any]] = None) -> RunRecord:
    """Assemble a schema-2 ledger record from one completed run.

    Parameters
    ----------
    name, config:
        Display name and the digestible configuration dict (use the
        same key set as :mod:`repro.bench.harness` so ledger records
        and trajectory records of the same run share a digest).
    result:
        The application's run result (step times, warmup).
    env:
        The :class:`~repro.grid.environment.GridEnvironment` the run
        used; supplies the aggregator and health events.
    steps_attribution:
        Per-step critical-path attribution
        (:func:`repro.obs.critpath.per_step_attribution` output); when
        given, its window totals become the record's ``critpath``.
    objects_blame:
        Optional per-object critical-path blame
        (:func:`repro.obs.critpath.per_object_blame` output); folded
        into the record's ``extra["objects"]`` roll-up.
    extra:
        Additional entries merged into the record's ``extra`` dict.
    """
    critpath = (attribution_totals(steps_attribution)
                if steps_attribution is not None else None)
    compute_share = None
    if critpath is not None and critpath["wall_s"] > 0:
        compute_share = critpath["compute_s"] / critpath["wall_s"]
    agg = env.aggregator
    rec_extra: Dict[str, Any] = {
        "time_per_step_mean_s": float(result.time_per_step),
        **(extra or {}),
    }
    net = net_rollup(env)
    if net is not None:
        rec_extra.setdefault("net", net)
    health = health_rollup(env.health_events)
    if health is not None:
        rec_extra.setdefault("health", health)
    objects = objects_rollup(env, blame=objects_blame)
    if objects is not None:
        rec_extra.setdefault("objects", objects)
    return RunRecord(
        name=name, config=config,
        time_per_step_s=_median_step_s(result),
        masked_fraction=(agg.masked_latency_fraction
                         if agg is not None else None),
        critpath_compute_share=compute_share,
        extra=rec_extra,
        schema=LEDGER_SCHEMA,
        critpath=critpath,
    )
