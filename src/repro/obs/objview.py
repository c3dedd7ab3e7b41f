"""Projections-style *object view*: per-chare profiles and advisor.

Charm++'s Projections tool has a per-object usage view that answers the
question the PE/link/run views cannot: *which objects* are over-coarse,
chatty, or misplaced.  This module is that view for the simulated
runtime, built from the object labels the scheduler and fabric stamp on
trace events and folded online by :class:`repro.sim.trace.ObjectFold`
(the ``objview`` of every :class:`~repro.sim.trace.TraceAggregator`):

* :class:`ObjectView` — presentation wrapper: JSON dump, text tables,
  totals, and the object×object communication matrix.
* :func:`recommend_decomposition` — the decomposition advisor: flags
  over-coarse objects (grain comparable to the per-step WAN latency, so
  their wait cannot hide behind a peer's compute), over-fine ones
  (per-message overhead dominated) and misplaced ones (traffic with one
  partner predominantly WAN), and — given the run shape — recommends a
  virtualization degree from the paper's masking condition
  ``C·(1 − 1/v) ≥ L`` (validated against the cached Figure-3 panel in
  ``tests/integration/test_objview_advisor.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.sim.trace import (
    CommEdge,
    ObjectFold,
    ObjectProfile,
    TraceAggregator,
)

__all__ = [
    "CommEdge",
    "ObjectFold",
    "ObjectProfile",
    "ObjectView",
    "Suggestion",
    "Advice",
    "recommend_decomposition",
]


def _fold_of(source: Union[ObjectFold, TraceAggregator,
                           "ObjectView"]) -> ObjectFold:
    """Accept any object-view source and return its fold."""
    if isinstance(source, ObjectView):
        return source.fold
    if isinstance(source, ObjectFold):
        return source
    objview = getattr(source, "objview", None)
    if objview is None:
        raise ValueError(
            "source has no object statistics (TraceAggregator built "
            "with objects=False?)")
    return objview


class ObjectView:
    """Presentation wrapper around an :class:`ObjectFold`.

    Construct from the run's recorder:
    ``ObjectView.from_source(env.aggregator)``.
    """

    def __init__(self, fold: ObjectFold, makespan_s: float = 0.0) -> None:
        self.fold = fold
        self.makespan_s = makespan_s

    @classmethod
    def from_source(cls, source: Union[ObjectFold,
                                       TraceAggregator]) -> "ObjectView":
        makespan = 0.0
        if isinstance(source, TraceAggregator):
            makespan = source.makespan()
        return cls(_fold_of(source), makespan_s=makespan)

    # -- queries ---------------------------------------------------------

    @property
    def profiles(self) -> Dict[str, ObjectProfile]:
        return self.fold.profiles

    @property
    def matrix(self) -> Dict[Tuple[str, str], CommEdge]:
        return self.fold.matrix

    def totals(self) -> Dict[str, object]:
        """Aggregate counters across all tracked objects."""
        profs = self.fold.profiles.values()
        return {
            "objects": len(self.fold.profiles),
            "executions": sum(p.executions for p in profs),
            "compute_s": self.fold.total_compute_s(),
            "queue_wait_s": sum(p.queue_wait_s for p in profs),
            "bytes_sent": sum(p.bytes_sent for p in profs),
            "wan_bytes_sent": sum(p.bytes_sent_wan for p in profs),
            "matrix_edges": len(self.fold.matrix),
            "makespan_s": self.makespan_s,
        }

    def to_dict(self) -> Dict[str, object]:
        out = self.fold.to_dict()
        out["totals"] = self.totals()
        return out

    # -- rendering -------------------------------------------------------

    def render(self, top: int = 10) -> str:
        """Text object view: top-compute table plus matrix hot spots."""
        lines: List[str] = []
        t = self.totals()
        lines.append(
            f"object view: {t['objects']} objects, "
            f"{t['executions']} executions, "
            f"{t['compute_s'] * 1e3:.3f} ms compute"
            + (f", makespan {self.makespan_s * 1e3:.3f} ms"
               if self.makespan_s else ""))
        profs = self.fold.top_by_compute(top)
        if profs:
            lines.append("")
            lines.append(f"{'object':<16} {'execs':>6} {'compute_ms':>11} "
                         f"{'p50_grain_us':>13} {'p95_grain_us':>13} "
                         f"{'wait_ms':>8} {'wan_out_kB':>11} "
                         f"{'wan_in_kB':>10}")
            for p in profs:
                lines.append(
                    f"{p.obj:<16} {p.executions:>6} "
                    f"{p.compute_s * 1e3:>11.3f} "
                    f"{p.grain_quantile(0.5) * 1e6:>13.1f} "
                    f"{p.grain_quantile(0.95) * 1e6:>13.1f} "
                    f"{p.queue_wait_s * 1e3:>8.3f} "
                    f"{p.bytes_sent_wan / 1e3:>11.1f} "
                    f"{p.bytes_recv_wan / 1e3:>10.1f}")
        edges = sorted(self.fold.matrix.values(),
                       key=lambda e: (-e.bytes, e.src, e.dst))[:top]
        if edges:
            lines.append("")
            lines.append(f"{'src -> dst':<34} {'msgs':>6} {'kB':>9} "
                         f"{'wan_msgs':>9} {'wan_kB':>9}")
            for e in edges:
                lines.append(
                    f"{e.src + ' -> ' + e.dst:<34} {e.messages:>6} "
                    f"{e.bytes / 1e3:>9.1f} {e.wan_messages:>9} "
                    f"{e.wan_bytes / 1e3:>9.1f}")
        return "\n".join(lines)


# -- decomposition advisor ----------------------------------------------------

@dataclass(frozen=True)
class Suggestion:
    """One advisor finding about one object."""

    obj: str
    #: ``"split"`` (over-coarse), ``"merge"`` (over-fine) or
    #: ``"migrate"`` (dominant WAN partner).
    action: str
    reason: str
    #: Predicted critical-path seconds recovered if applied; the ranking
    #: key (largest first).
    predicted_savings_s: float
    #: For ``migrate``: the partner object to co-locate with.
    partner: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "obj": self.obj,
            "action": self.action,
            "reason": self.reason,
            "predicted_savings_s": self.predicted_savings_s,
        }
        if self.partner is not None:
            out["partner"] = self.partner
        return out


@dataclass(frozen=True)
class Advice:
    """Advisor output: ranked suggestions plus the aggregate direction."""

    suggestions: List[Suggestion]
    #: ``"finer"`` (decompose more), ``"coarser"`` (merge), ``"keep"``.
    direction: str
    #: Total objects the masking condition asks for (``None`` when the
    #: run shape — ``num_pes``/``steps`` — was not provided).
    recommended_objects: Optional[int] = None
    #: Inputs echoed for the report/ledger.
    params: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "direction": self.direction,
            "recommended_objects": self.recommended_objects,
            "suggestions": [s.to_dict() for s in self.suggestions],
            "params": dict(self.params),
        }


def _recommended_degree(compute_per_pe_step: float, wan_latency_s: float,
                        overhead_s: float, num_pes: int,
                        grain_floor_factor: float) -> int:
    """Total objects from the paper's masking condition.

    With ``v`` objects per PE and per-PE per-step compute ``C``, an
    object's one-way WAN wait ``L`` hides behind its peers when
    ``C·(1 − 1/v) ≥ L``; solve for the smallest such ``v``, capped where
    grain ``C/v`` would sink below ``grain_floor_factor ×`` the
    per-message overhead (over-fine regime).
    """
    c = compute_per_pe_step
    if c <= 0.0:
        return num_pes
    g_min = grain_floor_factor * overhead_s
    v_max = max(1, int(c / g_min)) if g_min > 0 else 1 << 30
    if wan_latency_s <= 0.0:
        v = 1
    elif wan_latency_s >= c:
        # Latency exceeds a whole step's compute: no degree fully masks
        # it; ask for the finest grain that is not overhead-bound.
        v = v_max
    else:
        v = math.ceil(1.0 / (1.0 - wan_latency_s / c))
    return max(1, min(v, v_max)) * num_pes


def recommend_decomposition(
        source: Union[ObjectFold, TraceAggregator, "ObjectView"],
        wan_latency_s: float,
        *,
        overhead_s: float = 2e-6,
        num_pes: Optional[int] = None,
        steps: Optional[int] = None,
        blame: Optional[Mapping[str, Mapping[str, float]]] = None,
        coarse_ratio: float = 1.0,
        fine_ratio: float = 4.0,
        migrate_ratio: float = 0.5,
        grain_floor_factor: float = 8.0,
) -> Advice:
    """Flag over-coarse / over-fine / misplaced objects, ranked.

    Parameters
    ----------
    source:
        Anything holding object statistics: an :class:`ObjectFold`, a
        :class:`TraceAggregator` (with object stats on) or an
        :class:`ObjectView`.
    wan_latency_s:
        One-way per-step WAN latency of the run (the wait a finer
        decomposition would mask).
    overhead_s:
        Fixed per-message scheduling cost (``RuntimeConfig.scheduler_
        overhead``); the over-fine bound.
    num_pes, steps:
        Run shape; when both are given the masking condition yields
        :attr:`Advice.recommended_objects`.
    blame:
        Optional per-object critical-path blame (from
        :func:`repro.obs.critpath.per_object_blame`): when present, an
        object's measured exposed WAN wait ranks its split suggestion
        instead of the fold-derived upper bound.
    coarse_ratio, fine_ratio, migrate_ratio, grain_floor_factor:
        Heuristic knobs — an object is *over-coarse* when its mean
        grain is at least ``coarse_ratio × wan_latency_s``; *over-fine*
        when its mean grain is at most ``fine_ratio × overhead_s``;
        *misplaced* when at least ``migrate_ratio`` of its traffic is
        WAN bytes with a single partner.
    """
    fold = _fold_of(source)
    suggestions: List[Suggestion] = []
    split_savings = 0.0
    merge_savings = 0.0

    # Heaviest partner per object from the sparse matrix (both ways).
    partner_wan: Dict[str, Tuple[str, int, int]] = {}
    partner_total: Dict[str, int] = {}
    for (src, dst), cell in fold.matrix.items():
        for me, other in ((src, dst), (dst, src)):
            partner_total[me] = partner_total.get(me, 0) + cell.bytes
            best = partner_wan.get(me)
            if best is None or cell.wan_bytes > best[1]:
                partner_wan[me] = (other, cell.wan_bytes, cell.wan_messages)

    for obj in sorted(fold.profiles):
        p = fold.profiles[obj]
        if p.executions == 0:
            continue
        grain = p.mean_grain_s
        obj_blame = blame.get(obj) if blame is not None else None

        if wan_latency_s > 0.0 and grain >= coarse_ratio * wan_latency_s:
            if obj_blame is not None:
                savings = float(obj_blame.get("wan_wait_s", 0.0))
            else:
                # Upper bound: every inbound WAN wait could hide behind
                # a peer's grain if this object were split.
                savings = wan_latency_s * p.msgs_recv_wan
            if savings > 0.0:
                suggestions.append(Suggestion(
                    obj=obj, action="split",
                    reason=(f"mean grain {grain * 1e3:.3f} ms >= "
                            f"{coarse_ratio:g}x WAN latency "
                            f"{wan_latency_s * 1e3:.3f} ms: too coarse "
                            f"to overlap"),
                    predicted_savings_s=savings))
                split_savings += savings
        elif grain <= fine_ratio * overhead_s:
            # Merging pairs halves the per-message scheduling cost.
            savings = overhead_s * p.executions / 2.0
            suggestions.append(Suggestion(
                obj=obj, action="merge",
                reason=(f"mean grain {grain * 1e6:.2f} us <= "
                        f"{fine_ratio:g}x per-message overhead "
                        f"{overhead_s * 1e6:.2f} us: overhead dominated"),
                predicted_savings_s=savings))
            merge_savings += savings

        best = partner_wan.get(obj)
        total = partner_total.get(obj, 0)
        if (best is not None and total > 0
                and best[1] >= migrate_ratio * total):
            partner, wan_bytes, wan_msgs = best
            suggestions.append(Suggestion(
                obj=obj, action="migrate",
                reason=(f"{wan_bytes / 1e3:.1f} kB of "
                        f"{total / 1e3:.1f} kB total traffic is WAN "
                        f"with {partner}: co-locate"),
                predicted_savings_s=wan_latency_s * wan_msgs,
                partner=partner))

    suggestions.sort(key=lambda s: (-s.predicted_savings_s, s.obj,
                                    s.action))

    recommended = None
    if num_pes and steps:
        c_pe = fold.total_compute_s() / (num_pes * steps)
        recommended = _recommended_degree(
            c_pe, wan_latency_s, overhead_s, num_pes, grain_floor_factor)

    current = len(fold.profiles)
    if recommended is not None and current:
        if recommended > current:
            direction = "finer"
        elif recommended < current:
            direction = "coarser"
        else:
            direction = "keep"
    elif split_savings > merge_savings and split_savings > 0.0:
        direction = "finer"
    elif merge_savings > 0.0:
        direction = "coarser"
    else:
        direction = "keep"

    return Advice(
        suggestions=suggestions,
        direction=direction,
        recommended_objects=recommended,
        params={
            "wan_latency_s": wan_latency_s,
            "overhead_s": overhead_s,
            "coarse_ratio": coarse_ratio,
            "fine_ratio": fine_ratio,
            "migrate_ratio": migrate_ratio,
        })
