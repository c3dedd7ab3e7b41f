"""Projections-style execution tracing.

Charm++ ships with a performance-analysis tool called *Projections* that
records, per processor, intervals of entry-method execution and message
send/receive events.  This module provides the same facility for the
simulated runtime: the scheduler calls :meth:`Tracer.begin_execute` /
:meth:`Tracer.end_execute` and the network fabric calls
:meth:`Tracer.message_sent` / :meth:`Tracer.message_delivered`.

One recorder implements that surface, in two sizes:

* :class:`TraceAggregator` — the fold: each event updates running
  aggregates (PE utilization, per-entry profiles, WAN flight
  statistics, per-lane link usage, the per-object fold, and the
  headline **masked-latency fraction** — the share of WAN in-flight
  time during which the destination PE was busy) and is then
  forgotten.  Memory is O(PEs + entry kinds + in-flight messages), so
  full Figure-3/4 sweeps can keep statistics on.
* :class:`Tracer` — the same fold plus an event store: every sink
  method runs the aggregator's fold and then appends the raw record,
  for the queries only raw events answer (timelines, per-window busy
  time, causal graphs, export).  Memory grows with event count.

A recorder is on exactly when it is attached: the runtime records into
the fabric's ``tracer`` whenever it is not ``None``.  Every message
record carries the message's sequence id (``seq``), and sends pair with
deliveries by that id alone.

:class:`TraceFanout` multiplexes one recording stream to several sinks
(e.g. a run's recorder plus a custom sink of the caller's).

The trace is the raw material for

* the Figure-2 style timeline example (``examples/timeline_fig2.py``),
* PE utilization / overlap statistics used in tests to *prove* that
  latency masking actually happened (rather than inferring it from
  end-to-end times alone),
* Chrome-trace / event-log export (:mod:`repro.obs.export`) and the
  latency-masking report (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.network.hops import HopLedger

#: ``slots=True`` keeps the two per-event hot allocations small enough
#: that tracing stays affordable in big sweeps; the keyword only exists
#: on Python >= 3.10 (the package supports 3.9, where plain dataclasses
#: are used instead).
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class ExecInterval:
    """One entry-method execution on one PE."""

    pe: int
    start: float
    end: float
    chare: str
    entry: str
    #: Causal span id of this execution, unique within a run (the
    #: scheduler stamps one on every execution it records).
    sid: Optional[int] = None
    #: Span id of the execution that *sent* the message this execution
    #: is processing (the causal parent), or ``None`` for roots (driver
    #: sends).
    parent: Optional[int] = None
    #: Sequence id of the message whose delivery triggered this
    #: execution; pairs the span with its incoming wire edge.
    trigger: Optional[int] = None
    #: Location-independent object label (``str(ChareID)``) of the chare
    #: this execution ran on, or ``None`` for runtime-internal work
    #: (``<rts>`` forwards/relays/reductions, ``<driver>`` callbacks).
    #: Keyed by chare identity, not PE, so per-object aggregation is
    #: stable across migrations.
    obj: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, **_SLOTS)
class MessageEvent:
    """One message lifecycle milestone."""

    kind: str          # "send" | "deliver" | "drop"
    time: float
    src_pe: int
    dst_pe: int
    size: int
    tag: str
    crossed_wan: bool
    #: Message sequence id, used to pair sends to delivers exactly even
    #: when jitter or retransmission reorders deliveries.
    seq: int
    #: Span id of the execution that sent this message (causal parent),
    #: or ``None`` for driver/protocol messages.
    cause: Optional[int] = None
    #: For reliable-transport acks: the data-message seq acknowledged.
    ack_for: Optional[int] = None
    #: Object label of the sending chare (``None`` for driver/protocol
    #: messages).
    src_obj: Optional[str] = None
    #: Object label of the destination chare for point-to-point sends
    #: (``None`` for bundles, reductions, relays, migrations and acks).
    dst_obj: Optional[str] = None


@dataclass(frozen=True, **_SLOTS)
class HopEvent:
    """One wire copy's finished hop ledger (the flight recorder record).

    Emitted by the fabric once per *non-dropped* wire copy, at send
    time, with the copy's already-computed arrival.  ``hops`` holds the
    per-device :class:`~repro.network.hops.HopSpan` tuple in traversal
    order.
    """

    time: float
    src_pe: int
    dst_pe: int
    size: int
    tag: str
    crossed_wan: bool
    seq: int
    arrival: float
    hops: HopLedger
    #: Relay depth of the message in a hierarchical multicast (0=direct).
    relay_hop: int = 0
    #: ARQ attempt that produced this copy (0/1 = first, >=2 = retx).
    arq_attempt: int = 0

    @property
    def wire_time(self) -> float:
        """Send-to-arrival seconds for this copy."""
        return self.arrival - self.time


@dataclass
class LinkUsage:
    """Folded per-lane statistics from hop ledgers.

    One instance per wire lane: a transport device, a contended pipe
    direction, or a single striped stream.  ``link`` names the owning
    device so stream lanes can be rolled up per link.
    """

    lane: str
    link: str
    #: Wire/stream spans folded (chunks count individually on striped
    #: links; filter-device spans count separately under their own lane).
    crossings: int = 0
    #: Seconds the lane was occupied serializing bytes.
    busy_s: float = 0.0
    #: Seconds messages spent queued for the lane before service.
    queue_s: float = 0.0
    #: Total enqueue-to-arrive seconds across spans.
    flight_s: float = 0.0
    #: Queue-depth-at-enqueue histogram: depth -> observations.
    depth_counts: Optional[Dict[int, int]] = None
    #: True once any cross-WAN wire copy used this lane.
    wan: bool = False

    def observe(self, depth: int) -> None:
        if self.depth_counts is None:
            self.depth_counts = {}
        self.depth_counts[depth] = self.depth_counts.get(depth, 0) + 1

    def queue_depth_quantile(self, q: float) -> int:
        """Exact quantile of observed enqueue-time queue depths."""
        counts = self.depth_counts or {}
        total = sum(counts.values())
        if total == 0:
            return 0
        rank = q * (total - 1)
        seen = 0
        for depth in sorted(counts):
            seen += counts[depth]
            if seen - 1 >= rank:
                return depth
        return max(counts)

    @property
    def max_queue_depth(self) -> int:
        return max(self.depth_counts) if self.depth_counts else 0

    def busy_fraction(self, makespan: float) -> float:
        if makespan <= 0.0:
            return 0.0
        return self.busy_s / makespan

    def to_dict(self) -> Dict[str, object]:
        return {
            "lane": self.lane,
            "link": self.link,
            "crossings": self.crossings,
            "busy_s": self.busy_s,
            "queue_s": self.queue_s,
            "flight_s": self.flight_s,
            "p95_queue_depth": self.queue_depth_quantile(0.95),
            "max_queue_depth": self.max_queue_depth,
            "wan": self.wan,
        }


def fold_hops(links: Dict[str, LinkUsage], hops: HopLedger,
              wan: bool = False) -> None:
    """Fold one ledger into per-lane usage (:class:`TraceAggregator`)."""
    for h in hops:
        u = links.get(h.device)
        if u is None:
            u = links[h.device] = LinkUsage(lane=h.device, link=h.link)
        u.crossings += 1
        u.busy_s += h.ser_s
        u.queue_s += h.dequeue - h.enqueue
        u.flight_s += h.arrive - h.enqueue
        u.observe(h.queue_depth)
        if wan:
            u.wan = True


#: Grain-histogram bucket used for zero-duration executions.  Every
#: positive float's ``frexp`` exponent is >= -1073, so this sorts first.
_ZERO_GRAIN_BUCKET = -1075


def _grain_bucket(duration: float) -> int:
    """Log2 histogram bucket: ``e`` such that duration in [2^(e-1), 2^e)."""
    if duration <= 0.0:
        return _ZERO_GRAIN_BUCKET
    return math.frexp(duration)[1]


class ObjectProfile:
    """Per-chare execution/communication profile (Projections object view).

    Keyed by the chare's location-independent label, so all statistics
    follow the *object* across migrations, not the PE it happened to be
    on.  Byte/message counters are split three ways by what the wire
    copy crossed: ``local`` (same PE), ``lan`` (cross-PE inside one
    cluster) and ``wan`` (cross-cluster).

    Execution statistics are stored as ONE ``(entry, duration) ->
    count`` dict (:attr:`entry_grains`) and everything else —
    executions, total compute, exact max grain, the log2 grain
    histogram, per-entry counts — is *derived* on query.  This is the
    record-side half of the < 5 % perf-smoke bar: the per-execution hot
    path is a single dict increment, and the derivations iterate the
    dict in sorted key order, so they are deterministic.  A simulator's grain sizes
    come from its cost model and repeat heavily, so the dict stays
    O(entry kinds x distinct grains), far below O(executions).
    """

    __slots__ = ("obj", "entry_grains", "queue_wait_s", "queue_waits",
                 "msgs_sent_local", "msgs_sent_lan", "msgs_sent_wan",
                 "bytes_sent_local", "bytes_sent_lan", "bytes_sent_wan",
                 "msgs_recv_local", "msgs_recv_lan", "msgs_recv_wan",
                 "bytes_recv_local", "bytes_recv_lan", "bytes_recv_wan",
                 "drops")

    def __init__(self, obj: str) -> None:
        self.obj = obj
        #: (entry name, grain seconds) -> execution count.
        self.entry_grains: Dict[Tuple[str, float], int] = {}
        self.queue_wait_s = 0.0
        self.queue_waits = 0
        self.msgs_sent_local = 0
        self.msgs_sent_lan = 0
        self.msgs_sent_wan = 0
        self.bytes_sent_local = 0
        self.bytes_sent_lan = 0
        self.bytes_sent_wan = 0
        self.msgs_recv_local = 0
        self.msgs_recv_lan = 0
        self.msgs_recv_wan = 0
        self.bytes_recv_local = 0
        self.bytes_recv_lan = 0
        self.bytes_recv_wan = 0
        self.drops = 0

    @property
    def executions(self) -> int:
        return sum(self.entry_grains.values())

    @property
    def compute_s(self) -> float:
        """Total compute: sum of grain x count over sorted keys.

        The sorted iteration order makes the float sum a pure function
        of the dict *contents*, whatever order the updates arrived in.
        """
        return sum(k[1] * n for k, n in sorted(self.entry_grains.items()))

    @property
    def max_grain_s(self) -> float:
        if not self.entry_grains:
            return 0.0
        return max(d for _e, d in self.entry_grains)

    @property
    def grain_buckets(self) -> Dict[int, int]:
        """log2 bucket -> execution count (see :func:`_grain_bucket`)."""
        out: Dict[int, int] = {}
        for (_entry, d), n in self.entry_grains.items():
            b = _grain_bucket(d)
            out[b] = out.get(b, 0) + n
        return out

    @property
    def entries(self) -> Dict[str, int]:
        """Entry name -> execution count."""
        out: Dict[str, int] = {}
        for (entry, _d), n in self.entry_grains.items():
            out[entry] = out.get(entry, 0) + n
        return out

    @property
    def mean_grain_s(self) -> float:
        execs = self.executions
        return self.compute_s / execs if execs else 0.0

    @property
    def bytes_sent(self) -> int:
        return (self.bytes_sent_local + self.bytes_sent_lan
                + self.bytes_sent_wan)

    def grain_quantile(self, q: float,
                       buckets: Optional[Dict[int, int]] = None) -> float:
        """Histogram quantile of grain sizes (bucket lower edge).

        Derived purely from integer bucket counts, so it is order-free
        and exactly reproducible; resolution is one octave (the
        histogram's bucket width), with :attr:`max_grain_s` exact.
        Pass a precomputed :attr:`grain_buckets` to amortize the
        derivation across several quantiles.
        """
        if buckets is None:
            buckets = self.grain_buckets
        total = sum(buckets.values())
        if total == 0:
            return 0.0
        rank = q * (total - 1)
        seen = 0
        for bucket in sorted(buckets):
            seen += buckets[bucket]
            if seen - 1 >= rank:
                if bucket == _ZERO_GRAIN_BUCKET:
                    return 0.0
                return math.ldexp(1.0, bucket - 1)
        return self.max_grain_s

    def to_dict(self) -> Dict[str, object]:
        buckets = self.grain_buckets
        return {
            "obj": self.obj,
            "executions": self.executions,
            "compute_s": self.compute_s,
            "mean_grain_s": self.mean_grain_s,
            "p50_grain_s": self.grain_quantile(0.50, buckets),
            "p95_grain_s": self.grain_quantile(0.95, buckets),
            "max_grain_s": self.max_grain_s,
            "queue_wait_s": self.queue_wait_s,
            "queue_waits": self.queue_waits,
            "entries": {k: self.entries[k] for k in sorted(self.entries)},
            "sent": {
                "local_msgs": self.msgs_sent_local,
                "local_bytes": self.bytes_sent_local,
                "lan_msgs": self.msgs_sent_lan,
                "lan_bytes": self.bytes_sent_lan,
                "wan_msgs": self.msgs_sent_wan,
                "wan_bytes": self.bytes_sent_wan,
            },
            "recv": {
                "local_msgs": self.msgs_recv_local,
                "local_bytes": self.bytes_recv_local,
                "lan_msgs": self.msgs_recv_lan,
                "lan_bytes": self.bytes_recv_lan,
                "wan_msgs": self.msgs_recv_wan,
                "wan_bytes": self.bytes_recv_wan,
            },
            "drops": self.drops,
        }


class CommEdge:
    """One sparse object x object communication-matrix cell."""

    __slots__ = ("src", "dst", "messages", "bytes", "wan_messages",
                 "wan_bytes")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        self.messages = 0
        self.bytes = 0
        self.wan_messages = 0
        self.wan_bytes = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "src": self.src,
            "dst": self.dst,
            "messages": self.messages,
            "bytes": self.bytes,
            "wan_messages": self.wan_messages,
            "wan_bytes": self.wan_bytes,
        }


#: Most record tuples an :class:`ObjectFold` buffer holds.
#: :meth:`TraceAggregator.end_execute` drains the buffer once it is half
#: full; the other half is headroom for the sends and deliveries recorded
#: before the next execution ends.
OBJECT_BUFFER_LIMIT = 16384


class ObjectFold:
    """Per-object fold behind the Projections object view.

    :class:`TraceAggregator` (and so :class:`Tracer`) records events
    into this fold as it goes.  The hooks' fold work is *not* performed
    per event on the live path: the aggregator appends one small tuple
    per relevant event to :attr:`_buf` (a single ``list.append``, the
    cheapest record the runtime can make — the perf-smoke bar holds the
    whole fold under 5 % marginal wall-clock cost over stats-only
    aggregation) and the buffered stream is replayed through the
    reference hooks by :meth:`_drain`, either when anyone asks for
    :attr:`profiles` or :attr:`matrix` or when the buffer fills (see
    :data:`OBJECT_BUFFER_LIMIT`).  Replay preserves record order, so the
    result is the same fold the hooks would have produced event by
    event, however often it drains.

    Buffer protocol (first element tags the hook; the rest are its
    positional arguments in order)::

        (0, now, obj, trigger)                         -> on_begin
        (1, obj, entry, duration)                      -> on_exec
        (2, size, crossed_wan, local, src_obj, dst_obj)-> on_send
        (3, now, seq, size, crossed_wan, local, dst_obj)-> on_deliver
        (4, src_obj)                                   -> on_drop

    The recorder applies each hook's cheap early-out *before*
    appending (e.g. no tuple for an unlabelled execution), and feeds
    :attr:`window_max_grain_s` inline at record time so the telemetry
    sampler's :meth:`harvest_window` never forces a drain mid-run.

    Folded memory is O(objects + distinct (entry, grain) pairs +
    comm-matrix nonzeros); the undrained buffer adds at most
    :data:`OBJECT_BUFFER_LIMIT` tuples however long the run.
    """

    __slots__ = ("_profiles", "_matrix", "_buf", "_pending",
                 "window_max_grain_s", "window_max_grain_obj")

    def __init__(self) -> None:
        #: obj label -> profile (access via :attr:`profiles`).
        self._profiles: Dict[str, ObjectProfile] = {}
        #: (src_obj, dst_obj) -> matrix cell (access via :attr:`matrix`).
        self._matrix: Dict[Tuple[str, str], CommEdge] = {}
        #: Recorded-but-not-yet-folded events (see the buffer protocol
        #: in the class docstring).  :class:`TraceAggregator` appends
        #: to this directly on its hot path.
        self._buf: List[tuple] = []
        #: seq -> delivery time(s) not yet consumed by a triggered
        #: execution (queue-wait pairing).  A bare float for the common
        #: single-copy case, promoted to a FIFO list only when a second
        #: copy of the same seq arrives before the first is consumed.
        self._pending: Dict[int, object] = {}
        #: Largest single-execution grain since the last
        #: :meth:`harvest_window` (telemetry/watchdog feed, updated at
        #: *record* time by the aggregator; not part of the profile
        #: state the bit-identity tests compare).
        self.window_max_grain_s = 0.0
        self.window_max_grain_obj: Optional[str] = None

    @property
    def profiles(self) -> Dict[str, ObjectProfile]:
        """obj label -> profile, with any buffered events folded in."""
        if self._buf:
            self._drain()
        return self._profiles

    @property
    def matrix(self) -> Dict[Tuple[str, str], CommEdge]:
        """(src_obj, dst_obj) -> cell, with buffered events folded in."""
        if self._buf:
            self._drain()
        return self._matrix

    def _drain(self) -> None:
        """Replay the record buffer through the reference hooks."""
        buf = self._buf
        on_begin = self.on_begin
        on_exec = self.on_exec
        on_send = self.on_send
        on_deliver = self.on_deliver
        on_drop = self.on_drop
        for ev in buf:
            tag = ev[0]
            if tag == 1:
                on_exec(ev[1], ev[2], ev[3])
            elif tag == 3:
                on_deliver(ev[1], ev[2], ev[3], ev[4], ev[5], ev[6])
            elif tag == 2:
                on_send(ev[1], ev[2], ev[3], ev[4], ev[5])
            elif tag == 0:
                on_begin(ev[1], ev[2], ev[3])
            else:
                on_drop(ev[1])
        buf.clear()

    def _prof(self, obj: str) -> ObjectProfile:
        p = self._profiles.get(obj)
        if p is None:
            p = self._profiles[obj] = ObjectProfile(obj)
        return p

    # -- recording hooks -------------------------------------------------

    def on_begin(self, now: float, obj: Optional[str],
                 trigger: Optional[int]) -> None:
        """An execution began; pair it with its trigger's delivery.

        The pending delivery for *trigger* is popped even when the
        execution has no object label (``<rts>`` work), keeping the
        FIFO pairing aligned between both folds.
        """
        if trigger is None:
            return
        cur = self._pending.pop(trigger, None)
        if cur is None:
            return
        if type(cur) is list:
            delivered = cur.pop(0)
            if cur:
                self._pending[trigger] = cur
        else:
            delivered = cur
        if obj is not None:
            try:
                p = self._profiles[obj]
            except KeyError:
                p = self._profiles[obj] = ObjectProfile(obj)
            p.queue_wait_s += now - delivered
            p.queue_waits += 1

    def on_exec(self, obj: Optional[str], entry: str,
                duration: float) -> None:
        """An execution of *duration* seconds completed on *obj*.

        The grain window (:attr:`window_max_grain_s`) is deliberately
        *not* updated here: it is an online telemetry channel fed at
        record time by :class:`TraceAggregator`, so a deferred drain
        cannot resurrect grains a sampler already harvested.
        """
        if obj is None:
            return
        try:
            p = self._profiles[obj]
        except KeyError:
            p = self._profiles[obj] = ObjectProfile(obj)
        key = (entry, duration)
        grains = p.entry_grains
        try:
            grains[key] += 1
        except KeyError:
            grains[key] = 1

    def on_send(self, size: int, crossed_wan: bool, local: bool,
                src_obj: Optional[str], dst_obj: Optional[str]) -> None:
        if src_obj is None:
            return
        try:
            p = self._profiles[src_obj]
        except KeyError:
            p = self._profiles[src_obj] = ObjectProfile(src_obj)
        if crossed_wan:
            p.msgs_sent_wan += 1
            p.bytes_sent_wan += size
        elif local:
            p.msgs_sent_local += 1
            p.bytes_sent_local += size
        else:
            p.msgs_sent_lan += 1
            p.bytes_sent_lan += size
        if dst_obj is not None:
            key = (src_obj, dst_obj)
            try:
                cell = self._matrix[key]
            except KeyError:
                cell = self._matrix[key] = CommEdge(src_obj, dst_obj)
            cell.messages += 1
            cell.bytes += size
            if crossed_wan:
                cell.wan_messages += 1
                cell.wan_bytes += size

    def on_deliver(self, now: float, seq: int, size: int,
                   crossed_wan: bool, local: bool,
                   dst_obj: Optional[str]) -> None:
        pending = self._pending
        if seq in pending:
            cur = pending[seq]
            if type(cur) is list:
                cur.append(now)
            else:
                pending[seq] = [cur, now]
        else:
            pending[seq] = now
        if dst_obj is None:
            return
        try:
            p = self._profiles[dst_obj]
        except KeyError:
            p = self._profiles[dst_obj] = ObjectProfile(dst_obj)
        if crossed_wan:
            p.msgs_recv_wan += 1
            p.bytes_recv_wan += size
        elif local:
            p.msgs_recv_local += 1
            p.bytes_recv_local += size
        else:
            p.msgs_recv_lan += 1
            p.bytes_recv_lan += size

    def on_drop(self, src_obj: Optional[str]) -> None:
        if src_obj is not None:
            self._prof(src_obj).drops += 1

    # -- queries ---------------------------------------------------------

    def harvest_window(self) -> Tuple[float, Optional[str]]:
        """Return and reset the since-last-harvest max grain (sampler)."""
        out = (self.window_max_grain_s, self.window_max_grain_obj)
        self.window_max_grain_s = 0.0
        self.window_max_grain_obj = None
        return out

    def total_compute_s(self) -> float:
        return sum(p.compute_s for p in self.profiles.values())

    def top_by_compute(self, k: int = 10) -> List[ObjectProfile]:
        """The *k* objects with the most compute; deterministic ties."""
        return sorted(self.profiles.values(),
                      key=lambda p: (-p.compute_s, p.obj))[:k]

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dump: profiles and matrix in sorted key order."""
        return {
            "objects": {obj: self.profiles[obj].to_dict()
                        for obj in sorted(self.profiles)},
            "matrix": [self.matrix[key].to_dict()
                       for key in sorted(self.matrix)],
        }


@dataclass
class PeUsage:
    """Aggregated busy/idle statistics for one PE."""

    pe: int
    busy: float = 0.0
    executions: int = 0

    def utilization(self, makespan: float) -> float:
        """Fraction of *makespan* this PE spent executing entry methods."""
        if makespan <= 0.0:
            return 0.0
        return self.busy / makespan


@dataclass
class EntryProfile:
    """Aggregate execution statistics for one (chare type, entry) pair."""

    chare: str
    entry: str
    calls: int = 0
    total_time: float = 0.0

    @property
    def mean_time(self) -> float:
        return self.total_time / self.calls if self.calls else 0.0


# Kept only because benchmarks/e2e/spans.py wraps its methods by name.
class TraceFanout:
    """Broadcasts recording calls to several sinks.

    Used when a run wants both the full batch trace (for export) and
    streaming aggregation (for the report) — or, in principle, any
    future sink (a live dashboard feed, a sampling profiler).

    Sinks are isolated from each other's failures: a sink that raises is
    quarantined (never called again) and the exception is re-raised once
    — after the remaining sinks have received the event — so one broken
    sink can neither corrupt nor silence the others, and the error still
    surfaces to the caller exactly once.
    """

    def __init__(self, sinks: Sequence[TraceAggregator]) -> None:
        self.sinks: List[TraceAggregator] = list(sinks)
        #: id()s of sinks quarantined after raising.
        self._failed: set = set()

    def _fanout(self, call) -> None:
        err: Optional[BaseException] = None
        for s in self.sinks:
            if id(s) in self._failed:
                continue
            try:
                call(s)
            except Exception as exc:
                self._failed.add(id(s))
                if err is None:
                    err = exc
        if err is not None:
            raise err

    def begin_execute(self, pe: int, now: float, chare: str,
                      entry: str, sid: Optional[int] = None,
                      parent: Optional[int] = None,
                      trigger: Optional[int] = None,
                      obj: Optional[str] = None) -> None:
        self._fanout(lambda s: s.begin_execute(pe, now, chare, entry,
                                               sid=sid, parent=parent,
                                               trigger=trigger, obj=obj))

    def end_execute(self, pe: int, now: float) -> None:
        self._fanout(lambda s: s.end_execute(pe, now))

    def message_sent(self, now: float, src_pe: int, dst_pe: int, size: int,
                     tag: str, crossed_wan: bool,
                     seq: Optional[int] = None,
                     cause: Optional[int] = None,
                     ack_for: Optional[int] = None,
                     src_obj: Optional[str] = None,
                     dst_obj: Optional[str] = None,
                     arq_attempt: int = 0) -> None:
        self._fanout(lambda s: s.message_sent(now, src_pe, dst_pe, size,
                                              tag, crossed_wan, seq,
                                              cause=cause, ack_for=ack_for,
                                              src_obj=src_obj,
                                              dst_obj=dst_obj,
                                              arq_attempt=arq_attempt))

    def message_delivered(self, now: float, src_pe: int, dst_pe: int,
                          size: int, tag: str, crossed_wan: bool,
                          seq: Optional[int] = None,
                          cause: Optional[int] = None,
                          ack_for: Optional[int] = None,
                          src_obj: Optional[str] = None,
                          dst_obj: Optional[str] = None) -> None:
        self._fanout(lambda s: s.message_delivered(now, src_pe, dst_pe,
                                                   size, tag, crossed_wan,
                                                   seq, cause=cause,
                                                   ack_for=ack_for,
                                                   src_obj=src_obj,
                                                   dst_obj=dst_obj))

    def message_dropped(self, now: float, src_pe: int, dst_pe: int,
                        size: int, tag: str, crossed_wan: bool,
                        seq: Optional[int] = None,
                        cause: Optional[int] = None,
                        ack_for: Optional[int] = None,
                        src_obj: Optional[str] = None,
                        dst_obj: Optional[str] = None) -> None:
        self._fanout(lambda s: s.message_dropped(now, src_pe, dst_pe, size,
                                                 tag, crossed_wan, seq,
                                                 cause=cause,
                                                 ack_for=ack_for,
                                                 src_obj=src_obj,
                                                 dst_obj=dst_obj))

    def note_retransmit(self) -> None:
        self._fanout(lambda s: s.note_retransmit())

    def note_dup_suppressed(self) -> None:
        self._fanout(lambda s: s.note_dup_suppressed())

    def message_hops(self, now: float, src_pe: int, dst_pe: int, size: int,
                     tag: str, crossed_wan: bool, seq: Optional[int],
                     arrival: float, hops: HopLedger,
                     relay_hop: int = 0, arq_attempt: int = 0) -> None:
        self._fanout(lambda s: s.message_hops(
            now, src_pe, dst_pe, size, tag, crossed_wan, seq, arrival,
            hops, relay_hop=relay_hop, arq_attempt=arq_attempt))

    def close(self) -> None:
        """Close every healthy sink that supports closing.

        Quarantined sinks are *skipped* — a sink that already raised
        mid-run is in an unknown state and closing it would at best
        raise again and at worst flush corrupt partial data.  Sinks
        without a ``close`` method are fine (the recorders have none); a
        close that raises quarantines the sink like any
        recording call, and the first error is re-raised after the rest
        have been closed.
        """
        err: Optional[BaseException] = None
        for s in self.sinks:
            if id(s) in self._failed:
                continue
            close = getattr(s, "close", None)
            if close is None:
                continue
            try:
                close()
            except Exception as exc:
                self._failed.add(id(s))
                if err is None:
                    err = exc
        if err is not None:
            raise err


@dataclass
class WanOverlapStats:
    """Running WAN flight / overlap totals kept by the aggregator."""

    #: Closed (send -> first delivery) flight windows seen so far.
    windows: int = 0
    #: Total WAN in-flight seconds across closed windows.
    flight_time: float = 0.0
    #: Seconds of that in-flight time during which the destination PE
    #: was executing entry methods — the *masked* share.
    masked_time: float = 0.0
    #: Windows whose delivery has not been observed (yet, or ever).
    open_windows: int = 0

    @property
    def masked_fraction(self) -> float:
        """Share of WAN in-flight time overlapped by destination work.

        The paper's Figure-2 story as a single number: 1.0 means every
        in-flight millisecond was hidden behind other objects' work,
        0.0 means the destination idled through all of it.
        """
        if self.flight_time <= 0.0:
            return 0.0
        return self.masked_time / self.flight_time


class _OpenWindow:
    """Sender-side record of one not-yet-delivered WAN message."""

    __slots__ = ("send_time", "overlap")

    def __init__(self, send_time: float) -> None:
        self.send_time = send_time
        #: Destination-PE busy time accumulated inside the window so far.
        self.overlap = 0.0


class TraceAggregator:
    """Streaming trace statistics in O(PEs + entry kinds) memory.

    The run's single fold: each event updates running aggregates and is
    then forgotten, so benchmarks can keep statistics on during full
    Figure-3/4 sweeps.  :class:`Tracer` is this fold plus an event
    store.  Computed online:

    * per-PE busy time and execution counts (:meth:`pe_usage`);
    * the makespan spanned by execution intervals (:meth:`makespan`);
    * per-(chare, entry) execution profiles (:meth:`profile_by_entry`);
    * message/byte counters, split local vs WAN;
    * WAN flight windows and the **masked-latency fraction**
      (:attr:`wan`), using the same send/deliver pairing rules as
      :meth:`Tracer.wan_flight_windows`;
    * per-lane link usage from hop ledgers (:meth:`link_usage`);
    * per-object profiles and the comm matrix (:attr:`objview`).

    Each statistic is computed here once and read from here
    (:meth:`summary` and the accessors above); none is mirrored into
    the environment's pull-only
    :class:`~repro.obs.metrics.MetricsRegistry`.

    The only state that scales beyond O(PEs + entry kinds) is the
    per-message bookkeeping the semantics require: windows currently in
    flight, and the set of already-delivered sequence ids (small ints)
    that suppresses duplicate deliveries — the same information the
    reliable transport itself must keep to deduplicate.

    Relies on the engine's monotonic virtual clock: recording calls
    arrive in non-decreasing time order (true for anything driven by
    :class:`~repro.sim.engine.Engine`).

    Parameters
    ----------
    objects:
        Fold per-object profiles and the object x object communication
        matrix online (default on; an :class:`ObjectFold` at
        :attr:`objview`).  Off saves the per-event object bookkeeping
        for stats-only sweeps (the perf-smoke bar holds the fold's
        overhead under 5 %).
    """

    def __init__(self, objects: bool = True) -> None:
        #: Streaming per-object fold (``None`` when ``objects=False``).
        self.objview: Optional[ObjectFold] = ObjectFold() if objects \
            else None
        # Pre-bound append onto the fold's record buffer: the per-event
        # record is a single call through this binding.  Valid for the
        # aggregator's lifetime because ObjectFold._drain empties the
        # buffer in place (list.clear) rather than replacing it.
        self._ov_record = None if self.objview is None \
            else self.objview._buf.append
        #: pe -> (start, chare, entry, obj, sid, parent, trigger) of the
        #: execution open on that PE (:class:`Tracer` reads the causal
        #: ids from here when the execution ends).
        self._open_exec: Dict[int, tuple] = {}
        self._usage: Dict[int, PeUsage] = {}
        self._profiles: Dict[Tuple[str, str], EntryProfile] = {}
        self._t_min: Optional[float] = None
        self._t_max: Optional[float] = None
        # Message counters.
        self.sends = 0
        self.delivers = 0
        self.drops = 0
        self.wan_sends = 0
        self.wan_delivers = 0
        self.wan_drops = 0
        self.bytes_sent = 0
        self.wan_bytes_sent = 0
        self.retransmits = 0
        self.dups_suppressed = 0
        # WAN overlap tracking.
        self.wan = WanOverlapStats()
        #: dst_pe -> {(src_pe, seq): open window}.
        self._wan_open: Dict[int, Dict[Tuple[int, int], _OpenWindow]] = {}
        #: Per-lane usage folded online from hop ledgers (flight recorder).
        self._links: Dict[str, LinkUsage] = {}

    # -- recording -------------------------------------------------------

    def begin_execute(self, pe: int, now: float, chare: str,
                      entry: str, sid: Optional[int] = None,
                      parent: Optional[int] = None,
                      trigger: Optional[int] = None,
                      obj: Optional[str] = None) -> None:
        # Causal ids (sid/parent/trigger) are kept with the open
        # execution for Tracer's stored interval but not aggregated:
        # every streaming statistic except the object fold's queue-wait
        # pairing (which consumes ``trigger``) is independent of the
        # causal structure.
        if pe in self._open_exec:
            raise ValueError(
                f"PE {pe} already executing {self._open_exec[pe]!r}")
        self._open_exec[pe] = (now, chare, entry, obj, sid, parent, trigger)
        rec = self._ov_record
        if rec is not None and trigger is not None:
            # Fold work is deferred: recording is one buffered append
            # (see the ObjectFold buffer protocol); the fold replays the
            # buffer through its reference hooks on first query.
            rec((0, now, obj, trigger))

    def end_execute(self, pe: int, now: float) -> None:
        try:
            start, chare, entry, obj, _sid, _parent, _trigger = \
                self._open_exec.pop(pe)
        except KeyError:
            raise ValueError(f"PE {pe} has no open execution interval")
        duration = now - start
        rec = self._ov_record
        if rec is not None and obj is not None:
            # Deferred fold (see begin_execute's note).  The grain
            # window alone is fed inline: the telemetry sampler harvests
            # it mid-run, so it cannot wait for a drain.
            rec((1, obj, entry, duration))
            ov = self.objview
            if duration > ov.window_max_grain_s:
                ov.window_max_grain_s = duration
                ov.window_max_grain_obj = obj
            if len(ov._buf) * 2 >= OBJECT_BUFFER_LIMIT:
                ov._drain()
        usage = self._usage.get(pe)
        if usage is None:
            usage = self._usage[pe] = PeUsage(pe)
        usage.busy += duration
        usage.executions += 1
        key = (chare, entry)
        prof = self._profiles.get(key)
        if prof is None:
            prof = self._profiles[key] = EntryProfile(chare, entry)
        prof.calls += 1
        prof.total_time += duration
        if self._t_min is None or start < self._t_min:
            self._t_min = start
        if self._t_max is None or now > self._t_max:
            self._t_max = now
        # Credit this execution to every WAN window open on this PE: the
        # interval [start, now] overlaps window w on [max(start, w.send),
        # now] (delivery has not happened, so the window end is >= now).
        open_here = self._wan_open.get(pe)
        if open_here:
            for win in open_here.values():
                lo = win.send_time if win.send_time > start else start
                if now > lo:
                    win.overlap += now - lo

    def message_sent(self, now: float, src_pe: int, dst_pe: int, size: int,
                     tag: str, crossed_wan: bool, seq: int,
                     cause: Optional[int] = None,
                     ack_for: Optional[int] = None,
                     src_obj: Optional[str] = None,
                     dst_obj: Optional[str] = None,
                     arq_attempt: int = 0) -> None:
        self.sends += 1
        self.bytes_sent += size
        rec = self._ov_record
        if rec is not None and src_obj is not None:
            # Deferred fold (see begin_execute's note).
            rec((2, size, crossed_wan, src_pe == dst_pe,
                 src_obj, dst_obj))
        if not crossed_wan:
            return
        self.wan_sends += 1
        self.wan_bytes_sent += size
        if arq_attempt >= 2:
            # An ARQ retransmission: its window, if still open, keeps
            # the first send time; if already closed, stays closed.
            return
        opens = self._wan_open.setdefault(dst_pe, {})
        opens[(src_pe, seq)] = _OpenWindow(now)
        self.wan.open_windows += 1

    def message_delivered(self, now: float, src_pe: int, dst_pe: int,
                          size: int, tag: str, crossed_wan: bool, seq: int,
                          cause: Optional[int] = None,
                          ack_for: Optional[int] = None,
                          src_obj: Optional[str] = None,
                          dst_obj: Optional[str] = None) -> None:
        self.delivers += 1
        rec = self._ov_record
        if rec is not None and ack_for is None:
            # Deferred fold (see begin_execute's note).  ARQ acks skip
            # it: no execution consumes an ack, and an ack has no
            # dst_obj, so its record would only park a _pending entry.
            rec((3, now, seq, size, crossed_wan,
                 src_pe == dst_pe, dst_obj))
        if not crossed_wan:
            return
        self.wan_delivers += 1
        opens = self._wan_open.get(dst_pe)
        win = opens.pop((src_pe, seq), None) if opens is not None else None
        if win is None:
            # A duplicate (the first copy closed the window) or a
            # delivery without a recorded send (partial trace).
            return
        open_exec = self._open_exec.get(dst_pe)
        if open_exec is not None:
            start = open_exec[0]
            lo = win.send_time if win.send_time > start else start
            if now > lo:
                win.overlap += now - lo
        self.wan.open_windows -= 1
        self.wan.windows += 1
        self.wan.flight_time += now - win.send_time
        self.wan.masked_time += win.overlap

    def message_dropped(self, now: float, src_pe: int, dst_pe: int,
                        size: int, tag: str, crossed_wan: bool, seq: int,
                        cause: Optional[int] = None,
                        ack_for: Optional[int] = None,
                        src_obj: Optional[str] = None,
                        dst_obj: Optional[str] = None) -> None:
        self.drops += 1
        rec = self._ov_record
        if rec is not None and src_obj is not None:
            rec((4, src_obj))
        if crossed_wan:
            self.wan_drops += 1

    def note_retransmit(self) -> None:
        self.retransmits += 1

    def note_dup_suppressed(self) -> None:
        self.dups_suppressed += 1

    def message_hops(self, now: float, src_pe: int, dst_pe: int, size: int,
                     tag: str, crossed_wan: bool, seq: int,
                     arrival: float, hops: HopLedger,
                     relay_hop: int = 0, arq_attempt: int = 0) -> None:
        """Fold one wire copy's hop ledger into per-lane usage."""
        fold_hops(self._links, hops, crossed_wan)

    # -- analysis --------------------------------------------------------

    def link_usage(self) -> Dict[str, LinkUsage]:
        """Per-lane usage folded from hop ledgers (live view)."""
        return self._links

    def makespan(self) -> float:
        """Virtual time spanned by the completed execution intervals."""
        if self._t_min is None or self._t_max is None:
            return 0.0
        return self._t_max - self._t_min

    def pe_usage(self) -> Dict[int, PeUsage]:
        """Per-PE busy time and execution counts (live view)."""
        return self._usage

    def profile_by_entry(self) -> Dict[Tuple[str, str], EntryProfile]:
        """Per-(chare, entry) execution profile (live view)."""
        return self._profiles

    @property
    def masked_latency_fraction(self) -> float:
        """Share of WAN in-flight time the destination PE spent busy."""
        return self.wan.masked_fraction

    def utilization(self) -> Dict[int, float]:
        """Per-PE busy fraction of the makespan."""
        span = self.makespan()
        return {pe: u.utilization(span) for pe, u in self._usage.items()}

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest attached to benchmark rows and reports."""
        span = self.makespan()
        utils = sorted(u.utilization(span) for u in self._usage.values())
        busy_total = sum(u.busy for u in self._usage.values())
        out: Dict[str, object] = {
            "makespan_s": span,
            "pes_active": len(self._usage),
            "executions": sum(u.executions for u in self._usage.values()),
            "entry_kinds": len(self._profiles),
            "busy_time_s": busy_total,
            "mean_utilization": (sum(utils) / len(utils)) if utils else 0.0,
            "min_utilization": utils[0] if utils else 0.0,
            "max_utilization": utils[-1] if utils else 0.0,
            "messages": {
                "sent": self.sends,
                "delivered": self.delivers,
                "dropped": self.drops,
                "bytes_sent": self.bytes_sent,
                "wan_sent": self.wan_sends,
                "wan_delivered": self.wan_delivers,
                "wan_dropped": self.wan_drops,
                "wan_bytes_sent": self.wan_bytes_sent,
            },
            "wan": {
                "windows": self.wan.windows,
                "open_windows": self.wan.open_windows,
                "flight_time_s": self.wan.flight_time,
                "masked_time_s": self.wan.masked_time,
                "masked_fraction": self.wan.masked_fraction,
                "retransmits": self.retransmits,
                "dups_suppressed": self.dups_suppressed,
            },
            "links": {lane: self._links[lane].to_dict()
                      for lane in sorted(self._links)},
        }
        if self.objview is not None:
            out["objects"] = {
                "tracked": len(self.objview.profiles),
                "compute_s": self.objview.total_compute_s(),
                "matrix_edges": len(self.objview.matrix),
                "top_by_compute": [
                    {"obj": p.obj, "compute_s": p.compute_s,
                     "executions": p.executions}
                    for p in self.objview.top_by_compute(5)
                ],
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TraceAggregator(pes={len(self._usage)}, "
                f"executions={sum(u.executions for u in self._usage.values())}, "
                f"wan_windows={self.wan.windows}, "
                f"masked={self.wan.masked_fraction:.1%})")


class Tracer(TraceAggregator):
    """The full recorder: the streaming fold plus an event store.

    Every sink method runs :class:`TraceAggregator`'s fold and then
    appends the raw record (:class:`ExecInterval` when an execution
    ends, :class:`MessageEvent` or :class:`HopEvent`), so a traced
    run's statistics are the aggregator's by construction.  The stored
    events answer what only raw records can: timelines, busy time
    inside a window, causal graphs, export, and the top wire messages.

    Parameters
    ----------
    objects:
        As for :class:`TraceAggregator`.
    """

    def __init__(self, objects: bool = True) -> None:
        super().__init__(objects=objects)
        self.intervals: List[ExecInterval] = []
        self.messages: List[MessageEvent] = []
        #: Flight-recorder records: one per delivered wire copy, in the
        #: order the fabric emitted them.
        self.hops: List[HopEvent] = []
        #: Lazily built per-PE interval index for window queries; rebuilt
        #: whenever intervals were appended since the last build.
        self._index: Optional[Dict[int, Tuple[List[float], List[float],
                                              List[float]]]] = None
        self._index_len = -1

    # -- recording -------------------------------------------------------

    def end_execute(self, pe: int, now: float) -> None:
        """Mark the end of the currently open execution on *pe*."""
        opened = self._open_exec.get(pe)
        super().end_execute(pe, now)
        start, chare, entry, obj, sid, parent, trigger = opened
        self.intervals.append(ExecInterval(
            pe, start, now, chare, entry, sid=sid, parent=parent,
            trigger=trigger, obj=obj))

    def message_sent(self, now: float, src_pe: int, dst_pe: int, size: int,
                     tag: str, crossed_wan: bool, seq: int,
                     cause: Optional[int] = None,
                     ack_for: Optional[int] = None,
                     src_obj: Optional[str] = None,
                     dst_obj: Optional[str] = None,
                     arq_attempt: int = 0) -> None:
        """Record a message leaving its source PE."""
        super().message_sent(now, src_pe, dst_pe, size, tag, crossed_wan,
                             seq, cause, ack_for, src_obj, dst_obj,
                             arq_attempt)
        self.messages.append(MessageEvent(
            "send", now, src_pe, dst_pe, size, tag, crossed_wan, seq,
            cause, ack_for, src_obj, dst_obj))

    def message_delivered(self, now: float, src_pe: int, dst_pe: int,
                          size: int, tag: str, crossed_wan: bool, seq: int,
                          cause: Optional[int] = None,
                          ack_for: Optional[int] = None,
                          src_obj: Optional[str] = None,
                          dst_obj: Optional[str] = None) -> None:
        """Record a message arriving at its destination PE's queue."""
        super().message_delivered(now, src_pe, dst_pe, size, tag,
                                  crossed_wan, seq, cause, ack_for, src_obj,
                                  dst_obj)
        self.messages.append(MessageEvent(
            "deliver", now, src_pe, dst_pe, size, tag, crossed_wan, seq,
            cause, ack_for, src_obj, dst_obj))

    def message_dropped(self, now: float, src_pe: int, dst_pe: int,
                        size: int, tag: str, crossed_wan: bool, seq: int,
                        cause: Optional[int] = None,
                        ack_for: Optional[int] = None,
                        src_obj: Optional[str] = None,
                        dst_obj: Optional[str] = None) -> None:
        """Record a message lost on the wire (fault injection)."""
        super().message_dropped(now, src_pe, dst_pe, size, tag, crossed_wan,
                                seq, cause, ack_for, src_obj, dst_obj)
        self.messages.append(MessageEvent(
            "drop", now, src_pe, dst_pe, size, tag, crossed_wan, seq,
            cause, ack_for, src_obj, dst_obj))

    def message_hops(self, now: float, src_pe: int, dst_pe: int, size: int,
                     tag: str, crossed_wan: bool, seq: int,
                     arrival: float, hops: HopLedger,
                     relay_hop: int = 0, arq_attempt: int = 0) -> None:
        """Record one wire copy's hop ledger (see :class:`HopEvent`)."""
        super().message_hops(now, src_pe, dst_pe, size, tag, crossed_wan,
                             seq, arrival, hops, relay_hop, arq_attempt)
        self.hops.append(HopEvent(
            now, src_pe, dst_pe, size, tag, crossed_wan, seq, arrival,
            hops, relay_hop, arq_attempt))

    # -- stored-event queries --------------------------------------------

    def _pe_index(self) -> Dict[int, Tuple[List[float], List[float],
                                           List[float]]]:
        """``pe -> (starts, ends, duration prefix sums)``, sorted by start.

        Built once per batch of appended intervals; the overlap tests
        issue one :meth:`busy_during` call per WAN window, which used to
        rescan every interval (quadratic on big traces).
        """
        if self._index is not None and self._index_len == len(self.intervals):
            return self._index
        per_pe: Dict[int, List[ExecInterval]] = {}
        for iv in self.intervals:
            per_pe.setdefault(iv.pe, []).append(iv)
        index: Dict[int, Tuple[List[float], List[float], List[float]]] = {}
        for pe, ivs in per_pe.items():
            ivs.sort(key=lambda iv: iv.start)
            starts = [iv.start for iv in ivs]
            ends = [iv.end for iv in ivs]
            prefix = [0.0]
            acc = 0.0
            for iv in ivs:
                acc += iv.duration
                prefix.append(acc)
            index[pe] = (starts, ends, prefix)
        self._index = index
        self._index_len = len(self.intervals)
        return index

    def busy_during(self, pe: int, start: float, end: float) -> float:
        """Total time *pe* spent executing within the window [start, end].

        This is the workhorse of the overlap tests: after identifying a
        WAN message's in-flight window from the message events, the tests
        assert the destination PE was busy during it — i.e. the latency
        was *masked* by other objects' work, which is the paper's thesis.

        O(log n) per query via a per-PE sorted index with duration
        prefix sums (a PE's intervals never overlap — the recording API
        enforces one open execution per PE in monotonic time — so the
        intervals intersecting a window form a contiguous run).
        """
        entry = self._pe_index().get(pe)
        if entry is None or end <= start:
            return 0.0
        starts, ends, prefix = entry
        # First interval ending after the window opens ...
        lo = bisect_right(ends, start)
        # ... through the last interval starting before it closes.
        hi = bisect_left(starts, end)
        if lo >= hi:
            return 0.0
        total = prefix[hi] - prefix[lo]
        # Clip the boundary intervals to the window.
        if starts[lo] < start:
            total -= start - starts[lo]
        if ends[hi - 1] > end:
            total -= ends[hi - 1] - end
        return total

    def wan_flight_windows(self) -> List[Tuple[float, float, int, int]]:
        """Return ``(send_time, deliver_time, src_pe, dst_pe)`` for every
        message that crossed the wide-area link.

        Events carrying a message sequence id are paired *by id*, so the
        windows stay correct when jitter or retransmission delivers
        messages out of send order (FIFO pairing would silently cross
        them).  A retransmitted id contributes one window from its first
        send to its first delivery; duplicate deliveries are ignored.
        """
        first_send: Dict[Tuple[int, int, int], float] = {}
        emitted: set = set()
        windows: List[Tuple[float, float, int, int]] = []
        for ev in self.messages:
            if not ev.crossed_wan:
                continue
            key = (ev.src_pe, ev.dst_pe, ev.seq)
            if ev.kind == "send":
                first_send.setdefault(key, ev.time)
            elif (ev.kind == "deliver" and key in first_send
                  and key not in emitted):
                emitted.add(key)
                windows.append((first_send[key], ev.time,
                                ev.src_pe, ev.dst_pe))
        return windows

    def top_wire_messages(self, k: int = 10) -> List[HopEvent]:
        """The *k* wire copies with the largest send-to-arrival time.

        Ties break deterministically toward the earlier-recorded event.
        """
        order = sorted(range(len(self.hops)),
                       key=lambda i: (-self.hops[i].wire_time, i))
        return [self.hops[i] for i in order[:k]]

    def hop_ledgers(self) -> Dict[Tuple[int, float], HopLedger]:
        """``(seq, arrival) -> ledger`` for causal/critical-path lookup.

        The arrival time disambiguates duplicate wire copies of one
        sequence id (ARQ retransmissions, fault-injected dups); the
        delivery event the causal graph pairs against carries the same
        float, so lookups are exact.
        """
        out: Dict[Tuple[int, float], HopLedger] = {}
        for ev in self.hops:
            out.setdefault((ev.seq, ev.arrival), ev.hops)
        return out

    def timeline(self, pes: Optional[Iterable[int]] = None
                 ) -> Dict[int, List[ExecInterval]]:
        """Per-PE chronologically sorted execution intervals."""
        wanted = set(pes) if pes is not None else None
        out: Dict[int, List[ExecInterval]] = {}
        for iv in self.intervals:
            if wanted is not None and iv.pe not in wanted:
                continue
            out.setdefault(iv.pe, []).append(iv)
        for lst in out.values():
            lst.sort(key=lambda iv: iv.start)
        return out

    def render_timeline(self, width: int = 72,
                        pes: Optional[Iterable[int]] = None) -> str:
        """ASCII rendering of per-PE busy intervals (Figure-2 style).

        Each PE gets a row of *width* characters; ``#`` marks busy time,
        ``.`` idle time.  Intended for examples and debugging, not parsing.
        """
        tl = self.timeline(pes)
        if not tl:
            return "(empty trace)"
        start = min(iv.start for ivs in tl.values() for iv in ivs)
        end = max(iv.end for ivs in tl.values() for iv in ivs)
        span = max(end - start, 1e-12)
        lines = []
        for pe in sorted(tl):
            row = ["."] * width
            for iv in tl[pe]:
                lo = int((iv.start - start) / span * (width - 1))
                hi = int((iv.end - start) / span * (width - 1))
                for i in range(lo, hi + 1):
                    row[i] = "#"
            lines.append(f"PE{pe:>3} |" + "".join(row) + "|")
        return "\n".join(lines)
