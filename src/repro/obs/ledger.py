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

Records are appended flock-safe to the existing trajectory log (the
same ``BENCH_critpath.json`` machinery, same advisory lock + atomic
rename) and can additionally be **content-addressed** alongside the
:class:`~repro.bench.cache.RunCache` entries: the key is the SHA-256 of
the record's canonical JSON minus its wall-clock-dependent fields, so a
byte-identical re-run maps to the same ledger entry, exactly like a
cache hit.  ``repro compare`` (:mod:`repro.obs.diff`) consumes pairs of
these records.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.bench.trajectory import RunRecord, append_record
from repro.obs.critpath import COMPONENTS, WIRE_COMPONENTS

#: Ledger records are trajectory records with this schema number.
LEDGER_SCHEMA = 2

#: Content-addressed ledger entries live here, next to the run cache's
#: two-level fanout (the default cache root is ``.repro-cache``).
LEDGER_SUBDIR = "ledger"


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
    agg = getattr(env, "aggregator", None)
    usage = getattr(agg, "link_usage", None)
    links = usage() if usage is not None else {}
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
    agg = getattr(env, "aggregator", None)
    fold = getattr(agg, "objview", None)
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
    warmup = getattr(result, "warmup", 0)
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
    agg = getattr(env, "aggregator", None)
    rec_extra: Dict[str, Any] = {
        "time_per_step_mean_s": float(result.time_per_step),
        **(extra or {}),
    }
    net = net_rollup(env)
    if net is not None:
        rec_extra.setdefault("net", net)
    health = health_rollup(getattr(env, "health_events", ()))
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


def ledger_key(record: RunRecord) -> str:
    """Content hash identifying *record*'s deterministic payload.

    Canonical-JSON SHA-256 with the wall-clock-dependent fields
    (``created``, ``extra``) removed: a byte-identical
    re-run of the same configuration produces the same key, so storing
    it is idempotent — exactly the :mod:`repro.bench.cache` contract.
    """
    doc = record.to_dict()
    doc.pop("created", None)
    doc.pop("extra", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                       default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def store_record(record: RunRecord, root: str = ".repro-cache") -> str:
    """Content-address *record* under ``root/ledger/``; returns the path.

    Same layout and atomicity discipline as the run cache: two-level
    fanout, tempfile + rename, idempotent for identical runs.
    """
    key = ledger_key(record)
    path = os.path.join(root, LEDGER_SUBDIR, key[:2], key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {"key": key, "schema": LEDGER_SCHEMA, "record": record.to_dict()}
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_stored(path: str) -> RunRecord:
    """Load one content-addressed ledger entry back into a record."""
    with open(path) as fh:
        doc = json.load(fh)
    return RunRecord.from_dict(doc["record"])


def append_ledger(record: RunRecord, path: str, dedup: bool = False,
                  cache_root: Optional[str] = None) -> int:
    """Append a ledger record to a trajectory file (flock-safe).

    ``dedup`` defaults to off here — a ledger file built for an A/B
    comparison *wants* both records even when the runs are identical
    (the all-neutral self-compare is the CI smoke's whole point).  Pass
    ``cache_root`` to also store the record content-addressed alongside
    the run cache.
    """
    count = append_record(record, path=path, dedup=dedup)
    if cache_root is not None:
        store_record(record, root=cache_root)
    return count


def records_from_file(path: str) -> List[RunRecord]:
    """Records from *path*: a trajectory array, a single record dict,
    or a content-addressed ledger entry — whichever the file holds."""
    with open(path) as fh:
        raw = json.load(fh)
    if isinstance(raw, list):
        return [RunRecord.from_dict(d) for d in raw]
    if isinstance(raw, dict) and "record" in raw:
        return [RunRecord.from_dict(raw["record"])]
    if isinstance(raw, dict):
        return [RunRecord.from_dict(raw)]
    raise ValueError(f"{path}: not a trajectory array or record object")
