"""The message-driven scheduler.

This is the mechanism the whole paper rests on (§4): each PE owns a queue
of arrived messages; when the PE is idle, the scheduler dequeues the next
message and runs the targeted entry method *to completion*, charging its
virtual compute cost; messages the method sends depart when it finishes.
While a message for one object is in flight — in particular, crossing a
high-latency wide-area link — the PE keeps executing other objects' ready
messages.  That adaptive overlap of communication and computation is what
masks Grid latency without application changes.

The scheduler executes user Python code *synchronously* at dequeue time,
collects the virtual cost (static entry cost + dynamic ``charge()``
calls + fixed scheduling overhead), marks the PE busy for that long in
virtual time, and releases the method's outgoing messages at the busy
interval's end.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.ids import ChareID
from repro.core.method import EntryInfo, entry_info
from repro.core.pe import PeState
from repro.core.records import (
    Bundle,
    DriverCall,
    Invocation,
    MigrationMsg,
    ReductionMsg,
    RelayMsg,
)
from repro.errors import EntryMethodError, RuntimeSystemError
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rts import Runtime


class ExecutionContext:
    """State of the one entry-method execution in progress on a PE.

    One is allocated per executed message, so it is a ``__slots__``
    class with a straight-line ``__init__`` (no dataclass machinery on
    the hot path).
    """

    __slots__ = ("pe", "chare_id", "charged", "outbox",
                 "migration_request", "exec_id")

    def __init__(self, pe: int) -> None:
        self.pe = pe
        self.chare_id: Optional[ChareID] = None
        self.charged = 0.0
        self.outbox: List[Message] = []
        self.migration_request: Optional[Tuple[ChareID, int]] = None
        #: Causal span id of this execution; ``None`` when tracing is off
        #: (ids are only allocated when a sink will record them).
        self.exec_id: Optional[int] = None


class Scheduler:
    """Drives all PEs' message queues on top of the simulation engine."""

    def __init__(self, rts: "Runtime") -> None:
        self._rts = rts
        #: The runtime's engine and fabric, read directly on the
        #: per-message path (``_now`` and ``tracer``) instead of through
        #: the runtime's accessors.
        self._engine = rts.engine
        self._fabric = rts.fabric
        self._pes: List[PeState] = [
            PeState(pe, prioritized=rts.config.prioritized_queues)
            for pe in rts.topology.pes()
        ]
        self._current: Optional[ExecutionContext] = None
        #: Next causal span id (allocated only while tracing is on).
        self._next_exec_id = 0
        #: Memoized ``(chare class, entry name) -> (function, info)``:
        #: entry metadata is immutable after class definition, so the
        #: getattr + ``entry_info`` lookup is paid once per (class,
        #: entry) instead of once per executed message.
        self._entry_cache: Dict[Tuple[type, str],
                                Tuple[Callable, EntryInfo]] = {}

    # -- accessors ---------------------------------------------------------

    @property
    def pes(self) -> List[PeState]:
        return self._pes

    def pe_state(self, pe: int) -> PeState:
        return self._pes[pe]

    @property
    def current_context(self) -> Optional[ExecutionContext]:
        """The execution in progress right now, if any."""
        return self._current

    def all_queues_empty(self) -> bool:
        return all(len(ps.queue) == 0 and ps.idle for ps in self._pes)

    # -- delivery (fabric callback) ---------------------------------------------

    def deliver(self, msg: Message) -> None:
        """A message arrived at its destination PE's queue.

        An idle PE pops and executes the next queued message at once.
        """
        ps = self._pes[msg.dst_pe]
        payload = msg.payload
        queue = ps.queue
        if isinstance(payload, Bundle):
            # Expand per-PE bundles into individual executions; the
            # shared payload already paid its wire cost once.
            for inv in payload.invocations:
                # Keep the bundle's identity (seq/cause) so causal
                # analysis can map each expanded execution back to the
                # recorded wire edge.
                sub = Message(src_pe=msg.src_pe, dst_pe=msg.dst_pe,
                              size_bytes=0, payload=inv,
                              priority=msg.priority, tag=msg.tag,
                              seq=msg.seq, cause=msg.cause)
                sub.crossed_wan = msg.crossed_wan
                sub.sent_at = msg.sent_at
                queue.push(sub)
                ps.stats.messages_received += 1
            if ps.busy or not queue:
                return
        else:
            queue.push(msg)
            ps.stats.messages_received += 1
            if ps.busy:
                return
        self._execute(ps, queue.pop())

    def push_local(self, pe: int, msg: Message) -> None:
        """Re-queue a buffered message locally (post-migration flush)."""
        ps = self._pes[pe]
        ps.queue.push(msg)
        if not ps.busy:
            self._execute(ps, ps.queue.pop())

    # -- the scheduling loop ---------------------------------------------------

    def _execute(self, ps: PeState, msg: Message) -> None:
        """Run *msg* on the idle PE *ps*; its busy interval ends in
        :meth:`_finish`."""
        rts = self._rts
        t0 = self._engine._now
        ctx = ExecutionContext(ps.pe)
        tracer = self._fabric.tracer
        if tracer is not None:
            ctx.exec_id = self._next_exec_id
            self._next_exec_id += 1
        if self._current is not None:
            raise RuntimeSystemError(
                "nested entry-method execution (scheduler bug)")
        self._current = ctx
        # Busy from the first instant of the execution: anything arriving
        # (or locally re-queued) while user code runs must queue, not
        # dispatch recursively.
        ps.busy = True

        payload = msg.payload
        static_cost = 0.0
        label_chare, label_entry = "?", "?"
        try:
            if isinstance(payload, Invocation):
                static_cost, label_chare, label_entry = \
                    self._run_invocation(ps, ctx, msg, payload)
            elif isinstance(payload, ReductionMsg):
                label_chare, label_entry = "<rts>", "reduction"
                static_cost = rts.config.reduction_overhead
                rts.reductions.on_partial(ps.pe, payload)
            elif isinstance(payload, RelayMsg):
                label_chare, label_entry = "<rts>", "relay"
                static_cost = rts.config.relay_overhead
                rts._process_relay(ps.pe, payload)
            elif isinstance(payload, MigrationMsg):
                label_chare, label_entry = "<rts>", "migrate-in"
                static_cost = rts.config.migration_overhead
                rts._complete_migration(ps.pe, payload)
            elif isinstance(payload, DriverCall):
                label_chare, label_entry = "<driver>", getattr(
                    payload.fn, "__name__", "callback")
                payload.fn(*payload.args)
            else:
                raise EntryMethodError(
                    f"unknown payload type {type(payload).__name__}")
        finally:
            self._current = None

        total = rts.config.scheduler_overhead + static_cost + ctx.charged
        if tracer is not None:
            # Object label: set only for entry methods that actually ran
            # on a chare here (ctx.chare_id is filled by _run_invocation);
            # runtime-internal work (<rts>, <driver>) stays unattributed.
            obj = (rts._obj_label(ctx.chare_id)
                   if ctx.chare_id is not None else None)
            tracer.begin_execute(ps.pe, t0, label_chare, label_entry,
                                 sid=ctx.exec_id, parent=msg.cause,
                                 trigger=msg.seq, obj=obj)
        self._engine.post(t0 + total, self._finish, args=(ps, ctx, total))

    def _run_invocation(self, ps: PeState, ctx: ExecutionContext,
                        msg: Message, inv: Invocation):
        """Run a user entry method; returns (static_cost, labels...)."""
        rts = self._rts
        target = inv.target
        try:
            coll = rts._collections[target.collection]
            current_pe = coll.mapping[target.index]
        except KeyError:
            # Unknown chare: the accessor raises its UnknownChareError.
            current_pe = rts.pe_of(target)
        if current_pe != ps.pe:
            # The chare moved after this message was sent: forward it,
            # charging this PE the forwarding overhead.
            rts._forward(ps.pe, current_pe, msg)
            return rts.config.forward_overhead, "<rts>", "forward"

        chare = coll.objects[target.index]
        if chare is None:
            # Chare is migrating here but has not arrived yet.
            rts._buffer_until_arrival(target, msg)
            return 0.0, "<rts>", "await-migration"

        # The chare's own id: equal to *target*, and the same object on
        # every execution, so the load database's dicts match it by
        # identity instead of calling ChareID.__eq__.
        ctx.chare_id = chare._id
        cls = type(chare)
        cached = self._entry_cache.get((cls, inv.entry))
        if cached is None:
            func = getattr(cls, inv.entry, None)
            if func is None:
                raise EntryMethodError(
                    f"{cls.__name__} has no entry method "
                    f"{inv.entry!r}")
            info = entry_info(func)
            if info is None:
                raise EntryMethodError(
                    f"{cls.__name__}.{inv.entry} is not declared "
                    "with @entry")
            cached = self._entry_cache[(cls, inv.entry)] = (func, info)
        func, info = cached
        # The class-level function with an explicit self: equivalent to
        # ``getattr(chare, entry)(...)`` without allocating a bound
        # method per execution.
        func(chare, *inv.args, **inv.kwargs)
        static = 0.0
        if info.cost is not None:
            static = float(info.cost(chare, *inv.args, **inv.kwargs))
            if static < 0:
                raise EntryMethodError(
                    f"negative static cost from {inv.entry}")
        return static, cls.__name__, inv.entry

    def _finish(self, ps: PeState, ctx: ExecutionContext,
                total: float) -> None:
        rts = self._rts
        now = self._engine._now
        tracer = self._fabric.tracer
        if tracer is not None:
            tracer.end_execute(ps.pe, now)
        stats = ps.stats
        stats.executions += 1
        stats.busy_time += total
        if ctx.chare_id is not None:
            rts.lb_db.record_execution(ctx.chare_id, total)

        # Release messages produced by the execution: they depart *now*,
        # at the end of the busy interval (run-to-completion semantics).
        if ctx.outbox:
            send = self._fabric.send
            deliver = self.deliver
            cause = ctx.exec_id
            for out in ctx.outbox:
                stats.messages_sent += 1
                out.cause = cause
                send(out, deliver)

        ps.busy = False
        stats.last_idle_at = now

        if ctx.migration_request is not None:
            chare_id, new_pe = ctx.migration_request
            rts.migrate(chare_id, new_pe)

        queue = ps.queue
        if queue:
            self._execute(ps, queue.pop())
        elif rts._quiescence_cbs:
            rts._maybe_quiescent()
