"""The latency-masking report: the paper's argument as numbers.

Eijkhout's task-graph latency-tolerance work (PAPERS.md) quantifies
masking as an explicit overlap fraction; this module renders that
number — plus utilization and a comm/compute breakdown — for any run,
from the run's :class:`~repro.sim.trace.TraceAggregator` (a full
:class:`~repro.sim.trace.Tracer` is one), as a
:class:`LatencyMaskingReport` with a text rendering for terminals and
``to_dict()`` for ``--json`` consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.trace import EntryProfile, TraceAggregator, Tracer


@dataclass
class LatencyMaskingReport:
    """One run's observability digest."""

    makespan_s: float
    pes: int
    executions: int
    busy_time_s: float
    #: pe -> busy fraction of the makespan.
    utilization: Dict[int, float]
    #: Top entry methods by total time: (chare, entry, calls, total_s).
    top_entries: List[Tuple[str, str, int, float]]
    wan_windows: int
    wan_flight_time_s: float
    wan_masked_time_s: float
    masked_fraction: float
    retransmits: int = 0
    dups_suppressed: int = 0
    #: Optional critical-path section (``repro inspect --view critpath``
    #: fills it): steady-state component shares from
    #: :func:`repro.obs.critpath.summarize_attribution` and, when the
    #: knee analyzer ran, its :class:`~repro.obs.critpath.KneePrediction`
    #: digest under ``"knee"``.
    critpath: Optional[Dict[str, object]] = None
    #: Optional health section (``repro inspect --view health`` fills
    #: it): the watchdog events fired during the run, as
    #: :meth:`~repro.obs.health.HealthEvent.to_dict` dicts.
    health: Optional[Dict[str, object]] = None
    #: Optional telemetry section: the
    #: :meth:`~repro.obs.timeseries.TelemetrySampler.summary` digest.
    timeseries: Optional[Dict[str, object]] = None
    #: Optional network flight-recorder section (``repro inspect --view
    #: netview`` fills it): per-lane utilization, per-link roll-ups and
    #: the top wire messages, from :func:`netview_section`.
    net: Optional[Dict[str, object]] = None
    #: Optional object-view section (``repro inspect --view objview``
    #: fills it): the per-chare totals, top objects by compute, per-object
    #: critical-path blame and the decomposition advisor's verdict,
    #: from :func:`objview_section`.
    objects: Optional[Dict[str, object]] = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def mean_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return sum(self.utilization.values()) / len(self.utilization)

    @property
    def compute_fraction(self) -> float:
        """Busy share of total PE-seconds (compute side of the split)."""
        denom = self.makespan_s * self.pes
        return self.busy_time_s / denom if denom > 0 else 0.0

    @property
    def degenerate_label(self) -> Optional[str]:
        """Name for the WAN-overlap edge cases, ``None`` when ordinary.

        * ``"no-wan-traffic"`` — nothing ever crossed the wide area (a
          single-cluster or single-PE run): the masked fraction is
          vacuously 0 and should not be read as "nothing was masked".
        * ``"fully-masked"`` — every in-flight second was hidden behind
          destination work (the paper's ideal flat-region case).
        * ``"nothing-masked"`` — WAN flights happened but the
          destination idled through all of them (1 object/PE territory).
        """
        if self.wan_windows == 0 or self.wan_flight_time_s <= 0.0:
            return "no-wan-traffic"
        if self.wan_masked_time_s >= self.wan_flight_time_s:
            return "fully-masked"
        if self.wan_masked_time_s <= 0.0:
            return "nothing-masked"
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "makespan_s": self.makespan_s,
            "pes": self.pes,
            "executions": self.executions,
            "busy_time_s": self.busy_time_s,
            "mean_utilization": self.mean_utilization,
            "compute_fraction": self.compute_fraction,
            "utilization": {str(pe): u
                            for pe, u in sorted(self.utilization.items())},
            "top_entries": [
                {"chare": c, "entry": e, "calls": n, "total_s": t}
                for c, e, n, t in self.top_entries],
            "wan": {
                "windows": self.wan_windows,
                "flight_time_s": self.wan_flight_time_s,
                "masked_time_s": self.wan_masked_time_s,
                "masked_fraction": self.masked_fraction,
                "retransmits": self.retransmits,
                "dups_suppressed": self.dups_suppressed,
                "degenerate": self.degenerate_label,
            },
            **({"critpath": self.critpath}
               if self.critpath is not None else {}),
            **({"health": self.health}
               if self.health is not None else {}),
            **({"timeseries": self.timeseries}
               if self.timeseries is not None else {}),
            **({"net": self.net} if self.net is not None else {}),
            **({"objects": self.objects}
               if self.objects is not None else {}),
            **self.extra,
        }

    def render(self) -> str:
        """Human-readable report (``repro inspect``'s text output)."""
        lines = [
            "Latency-masking report",
            "----------------------",
            f"makespan            {self.makespan_s * 1e3:10.3f} ms",
            f"PEs active          {self.pes:10d}",
            f"entry executions    {self.executions:10d}",
            f"busy PE-time        {self.busy_time_s * 1e3:10.3f} ms "
            f"({self.compute_fraction:.1%} of PE-seconds)",
            f"mean utilization    {self.mean_utilization:10.1%}",
        ]
        if self.utilization:
            worst = min(self.utilization, key=self.utilization.get)
            best = max(self.utilization, key=self.utilization.get)
            lines.append(
                f"utilization range   PE {worst} {self.utilization[worst]:.1%}"
                f"  ..  PE {best} {self.utilization[best]:.1%}")
        lines += [
            "",
            f"WAN flight windows  {self.wan_windows:10d}",
            f"WAN in-flight time  {self.wan_flight_time_s * 1e3:10.3f} ms",
            f"  masked (dst busy) {self.wan_masked_time_s * 1e3:10.3f} ms",
            f"  masked fraction   {self.masked_fraction:10.1%}",
        ]
        label = self.degenerate_label
        if label is not None:
            note = {
                "no-wan-traffic": "no WAN traffic: masked fraction is "
                                  "vacuous",
                "fully-masked": "fully masked: every in-flight second "
                                "was hidden",
                "nothing-masked": "nothing masked: destination idled "
                                  "through every flight",
            }[label]
            lines.append(f"  note              {note}")
        if self.retransmits or self.dups_suppressed:
            lines.append(f"retransmits         {self.retransmits:10d}")
            lines.append(f"dups suppressed     {self.dups_suppressed:10d}")
        if self.critpath is not None:
            lines += ["", "Critical path (steady state)"]
            for key, title in (("compute", "compute"),
                               ("relay_overhead", "relay overhead"),
                               ("wan_flight", "WAN in-flight"),
                               ("propagation", "  propagation"),
                               ("bandwidth_serialization", "  serialization"),
                               ("stripe_pacing", "  stripe pacing"),
                               ("device_queue", "  device queue"),
                               ("queue_serial", "queue/serialization"),
                               ("retransmit_stall", "retransmit stall")):
                share = self.critpath.get(f"{key}_share")
                secs = self.critpath.get(f"{key}_s")
                if share is not None and secs is not None:
                    lines.append(f"  {title:18s}{float(secs) * 1e3:10.3f} ms "
                                 f"({float(share):.1%} of step time)")
            knee = self.critpath.get("knee")
            if isinstance(knee, dict):
                lines.append(
                    f"  predicted knee    "
                    f"{float(knee.get('predicted_knee_ms', 0.0)):10.3f} ms "
                    f"(T(L) within {float(knee.get('tolerance', 0.0)):g}x "
                    f"of baseline)")
        if self.health is not None:
            lines += ["", "Health"]
            events = self.health.get("events") or []
            lines.append(f"  events fired        {len(events)}")
            for ev in events:
                lines.append(
                    f"    [{str(ev.get('severity', '?')).upper():8s}] "
                    f"t={float(ev.get('t', 0.0)) * 1e3:10.3f} ms  "
                    f"{ev.get('rule')}: {ev.get('message')}")
        if self.timeseries is not None:
            series = self.timeseries.get("series") or {}
            if series:
                lines += ["", "Telemetry (last / min / max)"]
                name_w = max(len(n) for n in series)
                for name in sorted(series):
                    s = series[name]
                    lines.append(
                        f"  {name:<{name_w}}  {float(s['last']):.4g} / "
                        f"{float(s['min']):.4g} / {float(s['max']):.4g}")
        if self.net is not None:
            lanes = self.net.get("lanes") or {}
            if lanes:
                lines += ["", "Network flight recorder",
                          f"{'lane':28s} {'wan':>4} {'cross':>7} "
                          f"{'busy(ms)':>10} {'busy%':>7} {'queue(ms)':>10} "
                          f"{'p95 q':>6}"]
                for lane in sorted(lanes):
                    u = lanes[lane]
                    lines.append(
                        f"{lane:28s} {'wan' if u.get('wan') else '-':>4} "
                        f"{int(u.get('crossings', 0)):>7} "
                        f"{float(u.get('busy_s', 0.0)) * 1e3:>10.3f} "
                        f"{float(u.get('busy_fraction', 0.0)):>7.1%} "
                        f"{float(u.get('queue_s', 0.0)) * 1e3:>10.3f} "
                        f"{int(u.get('p95_queue_depth', 0)):>6}")
            top_msgs = self.net.get("top_messages") or []
            if top_msgs:
                lines += ["", f"top messages by wire time "
                              f"({len(top_msgs)} shown)",
                          f"{'seq':>8} {'route':14s} {'tag':16s} "
                          f"{'bytes':>9} {'wire(ms)':>10} {'relay':>6} "
                          f"{'arq':>4}"]
                for m in top_msgs:
                    route = f"PE{m.get('src_pe')}->PE{m.get('dst_pe')}"
                    lines.append(
                        f"{str(m.get('seq')):>8} {route:14s} "
                        f"{str(m.get('tag', '')):16s} "
                        f"{int(m.get('size', 0)):>9} "
                        f"{float(m.get('wire_s', 0.0)) * 1e3:>10.3f} "
                        f"{int(m.get('relay_hop', 0)):>6} "
                        f"{int(m.get('arq_attempt', 0)):>4}")
        if self.objects is not None:
            totals = self.objects.get("totals") or {}
            lines += ["", "Object view",
                      f"  objects tracked     "
                      f"{int(totals.get('objects', 0)):10d}",
                      f"  object compute      "
                      f"{float(totals.get('compute_s', 0.0)) * 1e3:10.3f} ms",
                      f"  comm-matrix edges   "
                      f"{int(totals.get('matrix_edges', 0)):10d}"]
            top_objs = self.objects.get("top_by_compute") or []
            if top_objs:
                lines.append(f"  {'object':<16} {'execs':>6} "
                             f"{'compute(ms)':>12} {'p95 grain(us)':>14} "
                             f"{'wan wait(ms)':>13}")
                for row in top_objs:
                    wan_wait = row.get("blame_wan_wait_s")
                    lines.append(
                        f"  {str(row.get('obj')):<16} "
                        f"{int(row.get('executions', 0)):>6} "
                        f"{float(row.get('compute_s', 0.0)) * 1e3:>12.3f} "
                        f"{float(row.get('p95_grain_s', 0.0)) * 1e6:>14.1f} "
                        + (f"{float(wan_wait) * 1e3:>13.3f}"
                           if wan_wait is not None else f"{'-':>13}"))
            advice = self.objects.get("advice")
            if isinstance(advice, dict):
                rec = advice.get("recommended_objects")
                lines.append(
                    f"  advisor             direction={advice.get('direction')}"
                    + (f", recommended objects={int(rec)}"
                       if rec is not None else ""))
                for s in (advice.get("suggestions") or [])[:5]:
                    lines.append(
                        f"    [{str(s.get('action')).upper():7s}] "
                        f"{s.get('obj')}: {s.get('reason')} "
                        f"(saves ~{float(s.get('predicted_savings_s', 0.0)) * 1e3:.3f} ms)")
        if self.top_entries:
            lines += ["", f"{'chare.entry':32s} {'calls':>8} {'time(ms)':>10}"]
            for chare, entry, calls, total in self.top_entries:
                lines.append(f"{chare + '.' + entry:32s} {calls:>8} "
                             f"{total * 1e3:>10.3f}")
        return "\n".join(lines)


def health_section(events) -> Dict[str, object]:
    """Build the report's ``health`` section from fired events.

    *events* is an iterable of :class:`~repro.obs.health.HealthEvent`
    (e.g. ``env.health_events``).
    """
    return {"events": [e.to_dict() for e in events]}


def netview_section(source: TraceAggregator,
                    top: int = 10) -> Dict[str, object]:
    """Build the report's ``net`` section from the flight recorder.

    Per-lane usage plus per-link roll-ups (stream lanes summed under
    their owning device).  The top-*top* wire messages need stored hop
    ledgers, so they are listed only when *source* is a :class:`Tracer`.
    """
    if not isinstance(source, TraceAggregator):
        raise ConfigurationError(
            f"cannot build a netview from {type(source).__name__}")
    links = source.link_usage()
    makespan = source.makespan()
    lanes: Dict[str, object] = {}
    rollup: Dict[str, Dict[str, object]] = {}
    for lane in sorted(links):
        u = links[lane]
        entry = u.to_dict()
        entry["busy_fraction"] = u.busy_fraction(makespan)
        lanes[lane] = entry
        agg = rollup.setdefault(u.link, {
            "lanes": 0, "crossings": 0, "busy_s": 0.0, "queue_s": 0.0,
            "wan": False})
        agg["lanes"] += 1
        agg["crossings"] += u.crossings
        agg["busy_s"] += u.busy_s
        agg["queue_s"] += u.queue_s
        agg["wan"] = agg["wan"] or u.wan
    for agg in rollup.values():
        agg["busy_fraction"] = (agg["busy_s"] / makespan
                                if makespan > 0 else 0.0)
    out: Dict[str, object] = {
        "makespan_s": makespan,
        "lanes": lanes,
        "links": rollup,
        "wan_crossings": sum(u.crossings for u in links.values() if u.wan),
    }
    if isinstance(source, Tracer):
        out["top_messages"] = [{
            "seq": ev.seq, "src_pe": ev.src_pe, "dst_pe": ev.dst_pe,
            "tag": ev.tag, "size": ev.size, "wire_s": ev.wire_time,
            "sent_s": ev.time, "arrival_s": ev.arrival,
            "relay_hop": ev.relay_hop, "arq_attempt": ev.arq_attempt,
            "wan": ev.crossed_wan, "hops": len(ev.hops),
        } for ev in source.top_wire_messages(top)]
    return out


def objview_section(source, top: int = 5, blame=None,
                    advice=None) -> Dict[str, object]:
    """Build the report's ``objects`` section from the object fold.

    Parameters
    ----------
    source:
        Anything :class:`~repro.obs.objview.ObjectView` accepts: a
        :class:`TraceAggregator` (or :class:`Tracer`) with object stats
        on, or an :class:`~repro.sim.trace.ObjectFold`.
    top:
        Objects listed in ``top_by_compute``.
    blame:
        Optional per-object critical-path blame
        (:func:`repro.obs.critpath.per_object_blame` output); rides
        along verbatim and annotates each top object's row.
    advice:
        Optional :class:`~repro.obs.objview.Advice`; its digest lands
        under ``"advice"``.
    """
    from repro.obs.objview import ObjectView

    view = source if isinstance(source, ObjectView) \
        else ObjectView.from_source(source)
    rows = []
    for p in view.fold.top_by_compute(top):
        row = {
            "obj": p.obj,
            "executions": p.executions,
            "compute_s": p.compute_s,
            "p50_grain_s": p.grain_quantile(0.5),
            "p95_grain_s": p.grain_quantile(0.95),
            "max_grain_s": p.max_grain_s,
            "queue_wait_s": p.queue_wait_s,
            "wan_bytes_sent": p.bytes_sent_wan,
            "wan_bytes_recv": p.bytes_recv_wan,
        }
        if blame is not None and p.obj in blame:
            row["blame_wan_wait_s"] = float(blame[p.obj]["wan_wait_s"])
            row["blame_total_s"] = float(blame[p.obj]["total_s"])
        rows.append(row)
    out: Dict[str, object] = {
        "totals": view.totals(),
        "top_by_compute": rows,
    }
    if blame is not None:
        out["blame"] = {obj: dict(parts)
                        for obj, parts in sorted(blame.items())}
    if advice is not None:
        out["advice"] = advice.to_dict()
    return out


def _top_entries(profiles: Dict[Tuple[str, str], EntryProfile],
                 top: int) -> List[Tuple[str, str, int, float]]:
    ranked = sorted(profiles.values(), key=lambda p: -p.total_time)[:top]
    return [(p.chare, p.entry, p.calls, p.total_time) for p in ranked]


def build_report(source: TraceAggregator,
                 top: int = 8) -> LatencyMaskingReport:
    """Build a :class:`LatencyMaskingReport` from the run's fold."""
    if not isinstance(source, TraceAggregator):
        raise ConfigurationError(
            f"cannot build a report from {type(source).__name__}")
    span = source.makespan()
    usage = source.pe_usage()
    return LatencyMaskingReport(
        makespan_s=span,
        pes=len(usage),
        executions=sum(u.executions for u in usage.values()),
        busy_time_s=sum(u.busy for u in usage.values()),
        utilization={pe: u.utilization(span) for pe, u in usage.items()},
        top_entries=_top_entries(source.profile_by_entry(), top),
        wan_windows=source.wan.windows,
        wan_flight_time_s=source.wan.flight_time,
        wan_masked_time_s=source.wan.masked_time,
        masked_fraction=source.wan.masked_fraction,
        retransmits=source.retransmits,
        dups_suppressed=source.dups_suppressed,
    )
