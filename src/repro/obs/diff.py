"""Differential run analysis: did two runs differ, and *why*.

``repro compare`` judges two run records
(:class:`~repro.bench.trajectory.RunRecord`) with two gates.  The
headline is the ratio of their median step times, ``candidate /
baseline``, judged against a fixed ±:data:`RATIO_THRESHOLD` band: that
says a run got 12 % slower.  When both records carry the schema-2
``critpath`` payload (:mod:`repro.obs.ledger`), :func:`compare_records`
also aligns their critical-path decompositions and diffs them with
**exact attribution**, which says the 12 % is 9 % retransmit stall and
3 % stripe pacing: the per-component virtual-time deltas sum to the
total time-per-step delta with ``residual == 0.0`` wherever the
underlying arithmetic is exact (dyadic grids in the property tests;
identical records in the CI self-compare), and the residual is
*reported*, never absorbed, everywhere else.  Without the payload on
both sides the comparison is the headline alone.

The exactness is by construction, not hope: per-step values divide each
component's window total by the window's step count, the totals on each
side are the same fixed-order sum over
:data:`~repro.obs.critpath.COMPONENTS`, and the comparison's residual
is ``(candidate_total - baseline_total) - sum(component deltas)`` — the
same telescoping discipline the single-run attribution invariant uses.

Each gate and each component gets a verdict — ``regressed`` /
``improved`` / ``neutral``.  Components and their total are judged
against a threshold scaled by the baseline's total step time (a 2 %
swing of the *step* is interesting; 2 % of a nanoseconds-sized
component is noise).  Network roll-ups and per-object blame diff
alongside, informationally: they never drive a verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bench.trajectory import RunRecord
from repro.obs.critpath import COMPONENTS

#: Headline gate: a candidate / baseline ``time_per_step_s`` ratio
#: more than this fraction above 1.0 is a regression (below, an
#: improvement).
RATIO_THRESHOLD = 0.10

#: Relative threshold: a component delta within this fraction of the
#: baseline's total step time is neutral.
DEFAULT_THRESHOLD = 0.02

#: Absolute floor under which any delta is neutral regardless of the
#: relative threshold (guards zero-ish baselines).
DEFAULT_ABS_FLOOR_S = 1e-9

REGRESSED, IMPROVED, NEUTRAL = "regressed", "improved", "neutral"


def _verdict(delta_s: float, scale_s: float) -> str:
    if abs(delta_s) <= scale_s:
        return NEUTRAL
    return REGRESSED if delta_s > 0 else IMPROVED


@dataclass
class ComponentDelta:
    """One critical-path component's per-step diff."""

    component: str
    baseline_s: float
    candidate_s: float
    delta_s: float
    verdict: str

    def to_dict(self) -> Dict[str, Any]:
        return {"component": self.component,
                "baseline_s": self.baseline_s,
                "candidate_s": self.candidate_s,
                "delta_s": self.delta_s,
                "verdict": self.verdict}


@dataclass
class RunComparison:
    """Outcome of comparing two run records.

    All component values are virtual seconds *per step* (each side's
    window totals divided by its own step count, so runs of different
    lengths compare honestly).  When either record lacks a ``critpath``
    payload, ``components`` is empty, the step totals and the residual
    are ``None``, and only the headline ratio is judged.
    """

    baseline: RunRecord
    candidate: RunRecord
    components: List[ComponentDelta]
    baseline_step_s: Optional[float]
    candidate_step_s: Optional[float]
    delta_step_s: Optional[float]
    #: (candidate_total - baseline_total) - sum(component deltas):
    #: exactly 0.0 under exact arithmetic, float noise otherwise.
    residual_s: Optional[float]
    #: Verdict on the critpath total (neutral when there is none).
    verdict: str
    threshold: float
    abs_floor_s: float
    #: net-rollup key -> {baseline, candidate, delta}.
    net: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: object label -> per-object critical-path blame diff (virtual
    #: seconds over each side's whole window):
    #: {total_baseline_s, total_candidate_s, total_delta_s,
    #:  wan_baseline_s, wan_candidate_s, wan_delta_s}.  Present only
    #: when both ledger records carry the ``extra["objects"]["blame"]``
    #: roll-up; informational, never drives a verdict.
    objects: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def config_changed(self) -> bool:
        return self.baseline.digest != self.candidate.digest

    @property
    def ratio(self) -> float:
        """candidate / baseline ``time_per_step_s`` (1.0 = unchanged)."""
        base = self.baseline.time_per_step_s
        cand = self.candidate.time_per_step_s
        if base <= 0:
            return float("inf") if cand > 0 else 1.0
        return cand / base

    @property
    def ratio_verdict(self) -> str:
        """The headline gate's verdict on :attr:`ratio`."""
        return _verdict(self.ratio - 1.0, RATIO_THRESHOLD)

    @property
    def regressed(self) -> bool:
        """True when the headline ratio or the critpath total regressed."""
        return REGRESSED in (self.ratio_verdict, self.verdict)

    @property
    def all_neutral(self) -> bool:
        """True when the ratio, the total and every component verdict is
        neutral."""
        return (self.ratio_verdict == NEUTRAL and self.verdict == NEUTRAL
                and all(c.verdict == NEUTRAL for c in self.components))

    @property
    def exact(self) -> bool:
        """Whether the attribution closed with zero residual."""
        return self.residual_s == 0.0

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        lines = []
        for label, rec in (("baseline ", self.baseline),
                           ("candidate", self.candidate)):
            lines.append(f"{label} {rec.name}  "
                         f"{rec.time_per_step_s * 1e3:.3f} ms/step  "
                         f"(digest {rec.digest})")
        lines.append(f"ratio     {self.ratio:.3f}x  "
                     f"(threshold +{RATIO_THRESHOLD:.0%})  -> "
                     f"{self.ratio_verdict}")
        if self.config_changed:
            lines.append("note      config digests differ: the comparison "
                         "crosses configurations")
        for key, attr in (("masked fraction", "masked_fraction"),
                          ("critpath compute share",
                           "critpath_compute_share")):
            b = getattr(self.baseline, attr)
            c = getattr(self.candidate, attr)
            if b is not None and c is not None:
                lines.append(f"{key:24s} {b:.3f} -> {c:.3f}")
        lines.append("")
        if not self.components:
            lines.append("no critpath payload on one or both records: "
                         "headline only")
        else:
            width = max(len(c.component) for c in self.components)
            lines.append(f"{'component':<{width}}  {'baseline':>12}  "
                         f"{'candidate':>12}  {'delta':>12}  verdict")
            for c in self.components:
                lines.append(
                    f"{c.component:<{width}}  {c.baseline_s * 1e3:9.4f} ms"
                    f"  {c.candidate_s * 1e3:9.4f} ms"
                    f"  {c.delta_s * 1e3:+9.4f} ms  {c.verdict}")
            lines.append(
                f"{'total/step':<{width}}"
                f"  {self.baseline_step_s * 1e3:9.4f} ms"
                f"  {self.candidate_step_s * 1e3:9.4f} ms"
                f"  {self.delta_step_s * 1e3:+9.4f} ms  {self.verdict}")
            lines.append(f"residual {self.residual_s:+.3e} s"
                         + ("  (exact)" if self.exact else ""))
        if self.net or self.objects:
            lines.append("")
        if self.net:
            lines.append("net roll-up:")
            for name in sorted(self.net):
                row = self.net[name]
                lines.append(f"  {name:<16} {row['baseline']:g} -> "
                             f"{row['candidate']:g} ({row['delta']:+g})")
        if self.objects:
            moved = sorted(self.objects.items(),
                           key=lambda kv: (-abs(kv[1]["wan_delta_s"]),
                                           kv[0]))[:10]
            lines.append("per-object blame (wan wait, informational):")
            for obj, row in moved:
                lines.append(
                    f"  {obj:<16} {row['wan_baseline_s'] * 1e3:9.4f} ms -> "
                    f"{row['wan_candidate_s'] * 1e3:9.4f} ms "
                    f"({row['wan_delta_s'] * 1e3:+9.4f} ms)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        def _side(rec: RunRecord) -> Dict[str, Any]:
            return {"name": rec.name, "digest": rec.digest,
                    "schema": rec.schema,
                    "time_per_step_s": rec.time_per_step_s,
                    "masked_fraction": rec.masked_fraction,
                    "steps": (rec.critpath or {}).get("steps")}

        return {
            "schema": 1,
            "baseline": _side(self.baseline),
            "candidate": _side(self.candidate),
            "ratio": {"value": self.ratio, "threshold": RATIO_THRESHOLD,
                      "verdict": self.ratio_verdict},
            "threshold": self.threshold,
            "abs_floor_s": self.abs_floor_s,
            "components": [c.to_dict() for c in self.components],
            "total": {
                "baseline_s": self.baseline_step_s,
                "candidate_s": self.candidate_step_s,
                "delta_s": self.delta_step_s,
                "verdict": self.verdict,
            },
            "residual_s": self.residual_s,
            "exact": self.exact,
            "all_neutral": self.all_neutral,
            "config_changed": self.config_changed,
            "net": self.net,
            "objects": self.objects,
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """Side-by-side trace: one process per run, component slices.

        Each process shows one *average step* tiled by its critical-path
        components (virtual µs), so chrome://tracing / Perfetto renders
        the diff as two stacked bars to eyeball against each other.
        """
        events: List[dict] = []
        sides = ((1, "baseline", self.baseline, True),
                 (2, "candidate", self.candidate, False))
        for pid, label, rec, is_base in sides:
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": f"{label}: {rec.name}"}})
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": "critpath / step"}})
            total = (self.baseline_step_s if is_base
                     else self.candidate_step_s)
            events.append({"name": "step", "ph": "X", "pid": pid, "tid": 0,
                           "ts": 0.0, "dur": total * 1e6,
                           "args": {"digest": rec.digest}})
            cursor = 0.0
            for c in self.components:
                dur = (c.baseline_s if is_base else c.candidate_s) * 1e6
                if dur <= 0.0:
                    continue
                events.append({"name": c.component, "ph": "X", "pid": pid,
                               "tid": 0, "ts": cursor, "dur": dur,
                               "args": {"delta_s": c.delta_s,
                                        "verdict": c.verdict}})
                cursor += dur
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _per_step(critpath: Dict[str, Any], key: str) -> float:
    steps = max(int(critpath.get("steps", 0)), 1)
    return float(critpath.get(key, 0.0)) / steps


def compare_records(baseline: RunRecord, candidate: RunRecord, *,
                    threshold: float = DEFAULT_THRESHOLD,
                    abs_floor_s: float = DEFAULT_ABS_FLOOR_S
                    ) -> RunComparison:
    """Compare two run records: the headline step ratio always, and the
    critpath decompositions when both records carry one."""
    components: List[ComponentDelta] = []
    b_total = c_total = delta_total = residual = None
    verdict = NEUTRAL
    if baseline.critpath and candidate.critpath:
        b_cp, c_cp = baseline.critpath, candidate.critpath
        b_vals = [_per_step(b_cp, f"{k}_s") for k in COMPONENTS]
        c_vals = [_per_step(c_cp, f"{k}_s") for k in COMPONENTS]
        b_total = 0.0
        for v in b_vals:
            b_total += v
        c_total = 0.0
        for v in c_vals:
            c_total += v
        delta_total = c_total - b_total
        deltas = [c - b for b, c in zip(b_vals, c_vals)]
        delta_sum = 0.0
        for d in deltas:
            delta_sum += d
        residual = delta_total - delta_sum

        scale = max(abs_floor_s, threshold * b_total)
        components = [
            ComponentDelta(component=k, baseline_s=b, candidate_s=c,
                           delta_s=d, verdict=_verdict(d, scale))
            for k, b, c, d in zip(COMPONENTS, b_vals, c_vals, deltas)
        ]
        verdict = _verdict(delta_total, scale)

    net: Dict[str, Dict[str, float]] = {}
    b_net = baseline.extra.get("net") or {}
    c_net = candidate.extra.get("net") or {}
    for name in sorted(set(b_net) | set(c_net)):
        b_v, c_v = b_net.get(name, 0), c_net.get(name, 0)
        if isinstance(b_v, (int, float)) and isinstance(c_v, (int, float)):
            net[name] = {"baseline": b_v, "candidate": c_v,
                         "delta": c_v - b_v}

    objects: Dict[str, Dict[str, float]] = {}
    b_blame = (baseline.extra.get("objects") or {}).get("blame") or {}
    c_blame = (candidate.extra.get("objects") or {}).get("blame") or {}
    if b_blame and c_blame:
        for obj in sorted(set(b_blame) | set(c_blame)):
            b_row, c_row = b_blame.get(obj, {}), c_blame.get(obj, {})
            b_tot = float(b_row.get("total_s", 0.0))
            c_tot = float(c_row.get("total_s", 0.0))
            b_wan = float(b_row.get("wan_wait_s", 0.0))
            c_wan = float(c_row.get("wan_wait_s", 0.0))
            objects[obj] = {
                "total_baseline_s": b_tot, "total_candidate_s": c_tot,
                "total_delta_s": c_tot - b_tot,
                "wan_baseline_s": b_wan, "wan_candidate_s": c_wan,
                "wan_delta_s": c_wan - b_wan,
            }

    return RunComparison(
        baseline=baseline, candidate=candidate, components=components,
        baseline_step_s=b_total, candidate_step_s=c_total,
        delta_step_s=delta_total, residual_s=residual, verdict=verdict,
        threshold=threshold, abs_floor_s=abs_floor_s,
        net=net, objects=objects)


def write_compare_trace(comparison: RunComparison, path: str) -> None:
    """Validate and write the comparison's Chrome trace to *path*.

    Raises
    ------
    ValueError
        If the comparison has no components to draw.
    """
    from repro.obs.export import validate_chrome_trace

    if not comparison.components:
        raise ValueError("no critpath payload on one or both records: "
                         "no side-by-side trace to draw")

    doc = comparison.chrome_trace()
    validate_chrome_trace(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
