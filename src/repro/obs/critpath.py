"""Causal critical-path analysis and per-step latency attribution.

The paper's headline claim — the near-horizontal region of Figures 3/4
and its knee — is a statement about the *critical path*: injected WAN
latency is invisible exactly while it stays off the critical path of
each step.  This module turns the causal trace (execution spans carrying
``sid``/``parent``/``trigger`` ids, message events carrying ``cause``)
into that argument, quantitatively:

* :class:`CausalGraph` — the step DAG reconstructed from a batch
  :class:`~repro.sim.trace.Tracer`: execution spans are nodes, message
  sends (ghost exchanges, reductions, acks and retransmissions from the
  reliable layer) are edges.
* :func:`critical_path` (via :meth:`CausalGraph.critical_path`) — the
  longest weighted chain ending at a given instant, reconstructed by
  walking blockers backward.  In this runtime a span starts at exactly
  ``max(trigger delivery, previous-span end on the same PE)``, so the
  walk is deterministic and the resulting labelled segments *partition*
  the analysed window — which yields the
* **per-step attribution** (:func:`per_step_attribution`): wall time of
  each application step decomposed into ``compute`` (critical spans),
  ``relay_overhead`` (hierarchical-multicast re-fan executions), the
  four wire components refining WAN flight time via the network flight
  recorder's hop ledgers (``propagation``, ``bandwidth_serialization``,
  ``stripe_pacing``, ``device_queue``), ``retransmit_stall`` (first-send
  to last-send of retransmitted transfers on the path) and
  ``queue_serial`` (local wire time, pre-transport serialization, and
  startup slack), with the invariant that the components sum to the
  measured step time.
* the **latency-masking model** (:func:`masked_step_time`,
  :func:`predict_knee`): ``T(L) = max(T0, k·L + T0/v)``, the step time
  of ``v`` objects per PE whose critical cycle crosses the WAN ``k``
  times, which predicts the Figure-3/4 step time T(L) — and hence the
  knee — from the per-PE busy time of a *single* run at any latency.

cf. Eijkhout's task-graph latency-tolerance transformations (PAPERS.md)
for the DAG view and the independent work that overlaps latency, and
Charm++ Projections' critical-path module for the backward-walk idea.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.network.hops import HopLedger
from repro.sim.trace import TraceAggregator, Tracer

_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Attribution component labels, in rendering order.  The four wire
#: components (see :data:`WIRE_COMPONENTS`) refine what used to be a
#: single ``wan_flight`` bucket, using the per-hop ledger the network
#: flight recorder stamps on every wire copy:
#:
#: * ``relay_overhead`` — execution time of ``<rts>.relay`` re-fan hops
#:   in hierarchical multicasts (previously misfiled under ``compute``);
#: * ``propagation`` — link latency: injected WAN delay plus the
#:   latency/overhead share of transit;
#: * ``bandwidth_serialization`` — bytes/bandwidth occupancy of the
#:   serving lane;
#: * ``stripe_pacing`` — waiting for a striped stream to free up;
#: * ``device_queue`` — waiting in a contended (non-striped) pipe.
COMPONENTS = ("compute", "relay_overhead", "propagation",
              "bandwidth_serialization", "stripe_pacing", "device_queue",
              "queue_serial", "retransmit_stall")

#: The components that make up the derived ``wan_flight`` total (wire
#: time of cross-cluster messages on the critical path).
WIRE_COMPONENTS = ("propagation", "bandwidth_serialization",
                   "stripe_pacing", "device_queue")


@dataclass(frozen=True, **_SLOTS)
class Span:
    """One entry-method execution as a DAG node."""

    sid: int
    pe: int
    start: float
    end: float
    chare: str
    entry: str
    parent: Optional[int]
    trigger: Optional[int]
    #: Location-independent object label (``str(ChareID)``), ``None``
    #: for runtime-internal spans (``<rts>``, ``<driver>``).
    obj: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def label(self) -> str:
        return f"{self.chare}.{self.entry}"


@dataclass(**_SLOTS)
class MessageRecord:
    """All lifecycle events of one message sequence id, folded."""

    seq: int
    src_pe: int
    dst_pe: int
    tag: str
    crossed_wan: bool
    cause: Optional[int] = None
    ack_for: Optional[int] = None
    #: Every send time (first entry = original transmission; the rest
    #: are retransmissions and fault-injected duplicates).
    sends: List[float] = field(default_factory=list)
    #: First delivery time — the one that enqueues the execution
    #: (duplicates are suppressed downstream).
    delivered: Optional[float] = None
    drops: int = 0
    #: ``arrival -> hop ledger`` per wire copy (flight recorder).  The
    #: arrival key is the exact float the delivery event carries, so the
    #: delivered copy's ledger is ``ledgers[delivered]``.
    ledgers: Dict[float, HopLedger] = field(default_factory=dict)

    @property
    def retransmitted(self) -> bool:
        return len(self.sends) > 1

    @property
    def first_send(self) -> float:
        return self.sends[0]

    def last_send_before_delivery(self) -> float:
        """Latest send that can have produced the first delivery."""
        if self.delivered is None:
            return self.sends[-1]
        best = self.sends[0]
        for t in self.sends:
            if t <= self.delivered and t > best:
                best = t
        return best


@dataclass(frozen=True, **_SLOTS)
class PathSegment:
    """One labelled time slice of a critical path (``[start, end]``)."""

    start: float
    end: float
    kind: str       # one of COMPONENTS
    detail: str     # human-readable: span label or message tag
    #: Object blamed for this slice: compute segments blame the chare
    #: that executed; wait segments (wire, queue, stalls, gaps) blame
    #: the *downstream* chare whose start they delayed.  ``None`` for
    #: runtime-internal work and startup filler.
    obj: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StepAttribution:
    """One application step's wall time, decomposed along its path."""

    step: int
    t_start: float
    t_end: float
    compute: float = 0.0
    relay_overhead: float = 0.0
    propagation: float = 0.0
    bandwidth_serialization: float = 0.0
    stripe_pacing: float = 0.0
    device_queue: float = 0.0
    queue_serial: float = 0.0
    retransmit_stall: float = 0.0
    #: The labelled path segments inside [t_start, t_end], in time order.
    segments: List[PathSegment] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.t_end - self.t_start

    @property
    def wan_flight(self) -> float:
        """Derived: cross-WAN wire time on the path (sum of the four
        wire components), kept for Figure-3 style reporting."""
        return (self.propagation + self.bandwidth_serialization
                + self.stripe_pacing + self.device_queue)

    @property
    def total(self) -> float:
        """Sum of all components (the invariant's left side)."""
        return (self.compute + self.relay_overhead + self.propagation
                + self.bandwidth_serialization + self.stripe_pacing
                + self.device_queue + self.queue_serial
                + self.retransmit_stall)

    @property
    def residual(self) -> float:
        """``wall - total``: 0 up to float addition error."""
        return self.wall - self.total

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "step": self.step,
            "t_start_s": self.t_start,
            "t_end_s": self.t_end,
            "wall_s": self.wall,
        }
        for k in COMPONENTS:
            out[f"{k}_s"] = getattr(self, k)
        out["wan_flight_s"] = self.wan_flight
        out["residual_s"] = self.residual
        out["path_segments"] = len(self.segments)
        return out


def _compute_kind(span: Span) -> str:
    """Attribution bucket for a critical execution span.

    The hierarchical multicast's ``<rts>.relay`` re-fan hops are runtime
    overhead of the routing scheme, not application work; filing them
    under ``compute`` (as the pre-ledger analysis did) hides exactly the
    cost the routing comparison needs to expose.
    """
    if span.chare == "<rts>" and span.entry == "relay":
        return "relay_overhead"
    return "compute"


def _emit_wire(emit, msg: MessageRecord, last_send: float,
               cursor: float, obj: Optional[str] = None) -> None:
    """Decompose one WAN wire window ``[last_send, cursor]`` by ledger.

    ``cursor`` is the delivery instant of the copy that produced the
    first delivery, so ``msg.ledgers[cursor]`` (exact float key) is that
    copy's hop ledger.  Each wire hop splits into queueing (device or
    stripe), bandwidth serialization and propagation sub-intervals; on a
    striped link only the **critical chunk** (latest arrival) is walked
    — the other chunks' wire time is overlapped, which is the point of
    striping.  Emission telescopes a single ``cur`` across the window
    (each piece starts where the previous ended, the last piece is
    clamped to ``cursor``, any tail becomes propagation), so the pieces
    tile ``[last_send, cursor]`` *exactly* regardless of float noise in
    the intermediate hop timestamps.  A WAN message without a ledger
    (recorder off for part of the run) falls back to one propagation
    segment.
    """
    detail = f"{msg.tag} PE{msg.src_pe}->PE{msg.dst_pe}"
    hops = msg.ledgers.get(cursor)
    if not hops:
        emit(last_send, cursor, "propagation", detail, obj)
        return
    critical = None
    for h in hops:
        if h.kind == "stream" and (critical is None
                                   or h.arrive > critical.arrive):
            critical = h
    intervals: List[tuple] = []
    for h in hops:
        if h.kind == "wire" or h is critical:
            queue_kind = ("stripe_pacing" if h.kind == "stream"
                          else "device_queue")
            ser_end = h.dequeue + h.ser_s
            intervals.append((h.enqueue, h.dequeue, queue_kind))
            intervals.append((h.dequeue, ser_end, "bandwidth_serialization"))
            intervals.append((ser_end, h.arrive, "propagation"))
        elif h.kind == "stream":
            continue  # non-critical chunk: fully overlapped
        else:
            # Filter-device span: the whole interval carries its kind.
            intervals.append((h.enqueue, h.arrive, h.kind))
    intervals.sort(key=lambda iv: (iv[0], iv[1]))
    cur = last_send
    for a, b, kind in intervals:
        if cur >= cursor:
            break
        if b <= cur:
            continue
        hi = b if b < cursor else cursor
        emit(cur, hi, kind, detail, obj)
        cur = hi
    if cur < cursor:
        emit(cur, cursor, "propagation", detail, obj)


class CausalGraph:
    """The step DAG of one traced run.

    Nodes are execution spans (sid-keyed); edges are messages (the span
    that sent a message is the causal parent of the execution the
    delivery triggers) plus the implicit same-PE run-to-completion chain
    (a PE's spans never overlap, so each span is also blocked by its
    predecessor on the same PE).
    """

    def __init__(self, spans: Dict[int, Span],
                 messages: Dict[int, MessageRecord]) -> None:
        self.spans = spans
        self.messages = messages
        #: pe -> spans sorted by start time.
        self.by_pe: Dict[int, List[Span]] = {}
        for span in spans.values():
            self.by_pe.setdefault(span.pe, []).append(span)
        for lst in self.by_pe.values():
            lst.sort(key=lambda s: (s.start, s.sid))
        #: sid -> same-PE predecessor sid (run-to-completion chain).
        self._pe_pred: Dict[int, Optional[int]] = {}
        for lst in self.by_pe.values():
            prev: Optional[Span] = None
            for span in lst:
                self._pe_pred[span.sid] = prev.sid if prev else None
                prev = span
        #: All spans sorted by (start, sid), for :meth:`terminal_span`.
        self.order: List[Span] = sorted(
            spans.values(), key=lambda s: (s.start, s.sid))
        self._starts = [s.start for s in self.order]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "CausalGraph":
        """Build the DAG from a batch trace recorded with causal ids."""
        if not isinstance(tracer, Tracer):
            raise ConfigurationError(
                "a causal graph needs the stored events of a Tracer "
                f"(run with trace=True); got {type(tracer).__name__}")
        spans: Dict[int, Span] = {}
        for iv in tracer.intervals:
            if iv.sid is None:
                continue  # recorded without a span id: no node identity
            spans[iv.sid] = Span(iv.sid, iv.pe, iv.start, iv.end,
                                 iv.chare, iv.entry, iv.parent, iv.trigger,
                                 obj=iv.obj)
        messages: Dict[int, MessageRecord] = {}
        for ev in tracer.messages:
            rec = messages.get(ev.seq)
            if rec is None:
                rec = messages[ev.seq] = MessageRecord(
                    seq=ev.seq, src_pe=ev.src_pe, dst_pe=ev.dst_pe,
                    tag=ev.tag, crossed_wan=ev.crossed_wan,
                    cause=ev.cause, ack_for=ev.ack_for)
            if ev.kind == "send":
                rec.sends.append(ev.time)
            elif ev.kind == "deliver":
                if rec.delivered is None or ev.time < rec.delivered:
                    rec.delivered = ev.time
            elif ev.kind == "drop":
                rec.drops += 1
        for ev in tracer.hops:
            rec = messages.get(ev.seq)
            if rec is not None:
                rec.ledgers.setdefault(ev.arrival, ev.hops)
        for rec in messages.values():
            rec.sends.sort()
        return cls(spans, messages)

    # -- queries -----------------------------------------------------------

    def pe_pred(self, sid: int) -> Optional[Span]:
        """Same-PE predecessor span (run-to-completion chain edge)."""
        pred = self._pe_pred.get(sid)
        return self.spans[pred] if pred is not None else None

    def terminal_span(self, t: float) -> Optional[Span]:
        """The span with the latest start <= *t* (step-boundary anchor).

        Step completion times are recorded *inside* user code, i.e. at
        the start instant of the execution that advanced the step, so a
        boundary time is always some span's exact start.
        """
        i = bisect_right(self._starts, t)
        return self.order[i - 1] if i else None

    def ack_edges(self) -> List[MessageRecord]:
        """Reliable-transport ack messages (reverse-direction edges)."""
        return [m for m in self.messages.values() if m.ack_for is not None]

    # -- the backward walk -------------------------------------------------

    def critical_path(self, t_end: float,
                      t_start: float = 0.0) -> List[PathSegment]:
        """Labelled critical-path segments partitioning [t_start, t_end].

        Starting from the span anchored at *t_end*, repeatedly ask "what
        blocked this span's start?":

        * its trigger message's delivery (``d``), or
        * the end of the previous span on the same PE (``p``).

        The scheduler dispatches the moment a PE goes idle and a message
        is queued, so ``start == max(d, p)`` always; ties prefer the
        message edge (the wire, not the queue, was binding).  Each hop
        prepends contiguous labelled segments — span compute, WAN or
        local wire time, retransmit stall — so the result tiles the
        window exactly; holes the trace cannot explain (driver startup,
        missing causal ids) become ``queue_serial`` filler.

        Every segment also carries an object blame label: compute
        blames the chare that executed, wait segments blame the
        *downstream* chare whose start they delayed (its inbound WAN
        wire time, queue wait, retransmit stalls), startup filler stays
        unattributed.  Because the labels merely annotate the same
        tiling, per-object blame sums preserve the attribution
        invariant exactly (see :func:`per_object_blame`).
        """
        segments: List[PathSegment] = []

        def emit(lo: float, hi: float, kind: str, detail: str,
                 obj: Optional[str] = None) -> None:
            lo = max(lo, t_start)
            hi = min(hi, t_end)
            if hi > lo:
                segments.append(PathSegment(lo, hi, kind, detail, obj=obj))

        span = self.terminal_span(t_end)
        cursor = t_end
        if span is None:
            emit(t_start, t_end, "queue_serial", "no spans recorded")
            return segments
        if span.start < t_end:
            # Boundary fell inside the span (non-start anchor): count the
            # span's elapsed share as compute, then explain its start.
            emit(span.start, t_end, _compute_kind(span), span.label,
                 span.obj)
            cursor = max(span.start, t_start)

        while cursor > t_start:
            msg = (self.messages.get(span.trigger)
                   if span.trigger is not None else None)
            d = msg.delivered if msg is not None else None
            pred = self.pe_pred(span.sid)
            p = pred.end if pred is not None else None
            # Wait time explained below delayed *this* span's start.
            consumer = span.obj

            if d is not None and d <= cursor and (p is None or d >= p):
                # Message edge: the trigger's arrival was binding.
                if d < cursor:
                    emit(d, cursor, "queue_serial",
                         f"queue wait ({msg.tag})", consumer)
                    cursor = d
                last_send = msg.last_send_before_delivery()
                first_send = msg.first_send
                if last_send < cursor:
                    if msg.crossed_wan:
                        _emit_wire(emit, msg, last_send, cursor, consumer)
                    else:
                        emit(last_send, cursor, "queue_serial",
                             f"{msg.tag} PE{msg.src_pe}->PE{msg.dst_pe}",
                             consumer)
                    cursor = max(last_send, t_start)
                if first_send < cursor:
                    emit(first_send, cursor, "retransmit_stall",
                         f"{msg.tag} x{len(msg.sends)} sends", consumer)
                    cursor = max(first_send, t_start)
                parent = (self.spans.get(msg.cause)
                          if msg.cause is not None else None)
                if parent is None or parent.end > cursor:
                    # Root message (driver-originated) or inconsistent
                    # ids: nothing more to explain on this chain.
                    emit(t_start, cursor, "queue_serial", "startup")
                    cursor = t_start
                    break
                if parent.end < cursor:
                    emit(parent.end, cursor, "queue_serial",
                         "serialization gap", consumer)
                    cursor = parent.end
                emit(parent.start, cursor, _compute_kind(parent),
                     parent.label, parent.obj)
                cursor = max(parent.start, t_start)
                span = parent
            elif pred is not None and p is not None and p <= cursor:
                # Same-PE edge: the processor, not the wire, was binding.
                if p < cursor:
                    emit(p, cursor, "queue_serial", "scheduler gap",
                         consumer)
                    cursor = p
                emit(pred.start, cursor, _compute_kind(pred), pred.label,
                     pred.obj)
                cursor = max(pred.start, t_start)
                span = pred
            else:
                emit(t_start, cursor, "queue_serial", "startup")
                cursor = t_start
                break
        segments.sort(key=lambda s: (s.start, s.end))
        return segments


def per_step_attribution(graph: CausalGraph,
                         boundaries: Sequence[float],
                         keep_segments: bool = True
                         ) -> List[StepAttribution]:
    """Attribute each step window between consecutive *boundaries*.

    *boundaries* are absolute virtual times: the run's start followed by
    each step's completion instant (``t0`` + ``result.step_times``).
    Returns one :class:`StepAttribution` per window, whose components
    sum to the window's wall time (exactly, up to float addition).
    """
    out: List[StepAttribution] = []
    for k in range(1, len(boundaries)):
        w0, w1 = float(boundaries[k - 1]), float(boundaries[k])
        att = StepAttribution(step=k - 1, t_start=w0, t_end=w1)
        if w1 > w0:
            segs = graph.critical_path(w1, w0)
            for seg in segs:
                setattr(att, seg.kind,
                        getattr(att, seg.kind) + seg.duration)
            if keep_segments:
                att.segments = segs
        out.append(att)
    return out


def summarize_attribution(steps: Sequence[StepAttribution],
                          warmup: int = 0) -> Dict[str, float]:
    """Aggregate component shares over the steady-state steps."""
    window = list(steps)[warmup:] or list(steps)
    totals = {k: 0.0 for k in COMPONENTS}
    wall = 0.0
    for att in window:
        wall += att.wall
        for k in COMPONENTS:
            totals[k] += getattr(att, k)
    out: Dict[str, float] = {"wall_s": wall, "steps": float(len(window))}
    for k in COMPONENTS:
        out[f"{k}_s"] = totals[k]
        out[f"{k}_share"] = totals[k] / wall if wall > 0 else 0.0
    # Derived roll-up of the wire components, kept so Figure-3 style
    # "how much is the WAN" reporting has one number to point at.
    wan = sum(totals[k] for k in WIRE_COMPONENTS)
    out["wan_flight_s"] = wan
    out["wan_flight_share"] = wan / wall if wall > 0 else 0.0
    return out


#: Blame bucket for path time no chare is responsible for: runtime
#: spans (``<rts>``/``<driver>`` work), startup filler, and waits whose
#: consuming span is runtime-internal.
UNATTRIBUTED = "<runtime>"


def per_object_blame(segments: Sequence[PathSegment]
                     ) -> Dict[str, Dict[str, float]]:
    """Fold labelled path segments into per-object blame.

    Accepts the segments of one :meth:`CausalGraph.critical_path` walk
    or the concatenation of many step windows
    (``[s for att in steps for s in att.segments]``).  Returns, per
    blamed object (runtime-internal time under :data:`UNATTRIBUTED`):

    * ``compute_s`` — the object's own executions on the path (plus
      relay overhead for the runtime bucket);
    * ``wan_wait_s`` — inbound WAN wire time and retransmit stalls that
      delayed the object's starts (the wait finer decomposition would
      mask);
    * ``queue_s`` — local wire/queue/scheduler time charged to it;
    * ``total_s`` — the sum of the above.

    Because the segments tile the analysed window and the labels merely
    partition that tiling, the objects' ``total_s`` values sum to the
    window's length — exactly (residual 0.0) when all event times are
    dyadic rationals, to float addition error otherwise.
    """
    out: Dict[str, Dict[str, float]] = {}
    for seg in segments:
        obj = seg.obj if seg.obj is not None else UNATTRIBUTED
        row = out.get(obj)
        if row is None:
            row = out[obj] = {"compute_s": 0.0, "wan_wait_s": 0.0,
                              "queue_s": 0.0, "total_s": 0.0}
        if seg.kind in ("compute", "relay_overhead"):
            bucket = "compute_s"
        elif seg.kind == "queue_serial":
            bucket = "queue_s"
        else:  # wire components + retransmit_stall: inbound WAN waits
            bucket = "wan_wait_s"
        row[bucket] += seg.duration
        row["total_s"] += seg.duration
    return out


def render_blame(blame: Dict[str, Dict[str, float]],
                 top: int = 10) -> str:
    """Terminal table of per-object critical-path blame, largest first."""
    ranked = sorted(blame.items(),
                    key=lambda kv: (-kv[1]["total_s"], kv[0]))[:top]
    lines = [f"{'object':<16} {'total_ms':>9} {'compute_ms':>11} "
             f"{'wan_wait_ms':>12} {'queue_ms':>9}"]
    for obj, row in ranked:
        lines.append(f"{obj:<16} {row['total_s'] * 1e3:>9.3f} "
                     f"{row['compute_s'] * 1e3:>11.3f} "
                     f"{row['wan_wait_s'] * 1e3:>12.3f} "
                     f"{row['queue_s'] * 1e3:>9.3f}")
    return "\n".join(lines)


# -- the latency-masking model ---------------------------------------------


def masked_step_time(t0: float, latency: float, objects_per_pe: float,
                     wan_legs: int = 1) -> float:
    """Step time of the latency-masking model, ``T(L) = max(T0, k·L + T0/v)``.

    *t0* is the step time without WAN latency, *latency* the one-way
    WAN latency ``L``, *objects_per_pe* the chares per PE ``v`` and
    *wan_legs* ``k``, the WAN crossings on a step's critical cycle (the
    app's ``WAN_LEGS``: 1 for the stencil's ghost exchange, 2 for
    LeanMD's cell -> pair -> cell round trip).  A seam object waits
    ``k·L`` for its remote input and then does its own ``T0/v`` of work;
    while that fits in the step, the other objects' independent work
    hides the wait and the step costs ``T0``.  So ``T(L) = T0`` up to
    ``L = T0·(1 − 1/v)/k``, and grows with slope ``k`` past it.
    """
    return max(t0, wan_legs * latency + t0 / objects_per_pe)


#: Knee tolerance (EXPERIMENTS.md): a sweep's knee is the largest
#: latency whose step time stays within this factor of the
#: lowest-latency step time.
KNEE_TOLERANCE = 1.5


def knee_latency(points: Sequence[Tuple[float, float]],
                 tolerance: float = KNEE_TOLERANCE) -> float:
    """The knee of a latency sweep, 0.0 when it is empty.

    *points* are ``(latency, step time)`` pairs sorted by latency.  The
    scan runs up from the lowest latency and stops at the first step
    time above *tolerance* x the lowest-latency one.
    """
    if not points:
        return 0.0
    knee, base = points[0]
    for lat, t in points:
        if t <= tolerance * base:
            knee = lat
        else:
            break
    return knee


@dataclass
class KneePrediction:
    """The latency-masking model evaluated on a latency grid."""

    #: One-way latency of the measured run, seconds.
    observed_latency_s: float
    #: Swept hypothetical one-way latencies, seconds.
    grid_s: List[float]
    #: Model step time at each grid latency.
    predicted_step_s: List[float]
    #: Knee tolerance (:data:`KNEE_TOLERANCE` by default).
    tolerance: float
    #: The model's ``v``: the run's chares per PE.
    objects_per_pe: float
    #: The model's ``k``: WAN crossings on a step's critical cycle.
    wan_legs: int

    @property
    def baseline_s(self) -> float:
        return self.predicted_step_s[0] if self.predicted_step_s else 0.0

    @property
    def knee_s(self) -> float:
        """Largest grid latency within tolerance x baseline (Fig-3 knee)."""
        return knee_latency(list(zip(self.grid_s, self.predicted_step_s)),
                            self.tolerance)

    def to_dict(self) -> Dict[str, object]:
        return {
            "observed_latency_ms": self.observed_latency_s * 1e3,
            "grid_ms": [x * 1e3 for x in self.grid_s],
            "predicted_step_ms": [x * 1e3 for x in self.predicted_step_s],
            "baseline_step_ms": self.baseline_s * 1e3,
            "tolerance": self.tolerance,
            "predicted_knee_ms": self.knee_s * 1e3,
            "objects_per_pe": self.objects_per_pe,
            "wan_legs": self.wan_legs,
        }


def predict_knee(aggregator: TraceAggregator, steps: int,
                 objects_per_pe: float, wan_legs: int,
                 observed_latency_s: float, grid_s: Sequence[float],
                 tolerance: float = KNEE_TOLERANCE) -> KneePrediction:
    """Predict the knee of a latency sweep from one run of *steps* steps.

    ``T0`` is the busiest PE's busy seconds per step (*aggregator*'s
    :meth:`~repro.sim.trace.TraceAggregator.pe_usage`): the work that PE
    does whatever the WAN latency, so a run at any latency gives the
    same prediction.  Each grid latency's step time is
    :func:`masked_step_time`; the knee is the largest grid latency whose
    step time stays within *tolerance* of the lowest-latency one (the
    rule :func:`knee_latency` applies to measured sweeps).
    """
    busy = max((u.busy for u in aggregator.pe_usage().values()),
               default=0.0)
    t0 = busy / steps
    grid = sorted(float(x) for x in grid_s)
    preds = [masked_step_time(t0, lat, objects_per_pe, wan_legs)
             for lat in grid]
    return KneePrediction(observed_latency_s=observed_latency_s,
                          grid_s=grid, predicted_step_s=preds,
                          tolerance=tolerance, objects_per_pe=objects_per_pe,
                          wan_legs=wan_legs)


def render_attribution(steps: Sequence[StepAttribution],
                       warmup: int = 0) -> str:
    """Terminal table: per-step breakdown plus the steady-state shares."""
    lines = [f"{'step':>4} {'wall(ms)':>10} {'compute':>10} {'relay':>10} "
             f"{'wan':>10} {'queue':>10} {'stall':>10}"]
    for att in steps:
        lines.append(
            f"{att.step:>4} {att.wall * 1e3:>10.3f} "
            f"{att.compute * 1e3:>10.3f} "
            f"{att.relay_overhead * 1e3:>10.3f} "
            f"{att.wan_flight * 1e3:>10.3f} "
            f"{att.queue_serial * 1e3:>10.3f} "
            f"{att.retransmit_stall * 1e3:>10.3f}")
    summary = summarize_attribution(steps, warmup=warmup)
    lines.append("")
    lines.append(
        "steady state: "
        + "  ".join(f"{k} {summary[f'{k}_share']:.1%}" for k in COMPONENTS))
    lines.append(
        "wire total (wan_flight): "
        f"{summary['wan_flight_share']:.1%} "
        "= " + " + ".join(
            f"{k} {summary[f'{k}_share']:.1%}" for k in WIRE_COMPONENTS))
    return "\n".join(lines)
