"""Deterministic discrete-event simulation engine.

The engine owns a virtual clock and a single priority queue of events.
Events are ``(time, tiebreak, action)`` triples; *tiebreak* is a
monotonically increasing sequence number so that two events scheduled for
the same instant always fire in the order they were scheduled.  This is
what makes every simulation in the library bit-reproducible: no wall-clock
time, no hash ordering, no thread scheduling ever enters the picture.

The engine is intentionally tiny.  Everything interesting (processors,
networks, chares) is built on top of two operations:

* :meth:`Engine.post` — schedule a callback at an absolute virtual time.
* :meth:`Engine.run` — drain the queue until empty (or until a limit).

``post`` accepts an optional ``args`` tuple applied at fire time
(``action(*args)``).  Hot paths use this instead of wrapping arguments
in a lambda: a tuple is one small allocation where a closure costs a
function object plus one cell per captured variable, and the per-event
difference adds up over millions of simulated messages.

Events posted with ``daemon=True`` are *background* events (telemetry
sampler ticks): they fire in time order like any other event, but they
do not count toward :attr:`Engine.pending` and do not keep :meth:`run`
alive — a run ends when only daemon events remain, exactly as it would
with none queued.  Without this, a self-rescheduling sampler would both
livelock ``run()`` and defeat quiescence detection (``pending == 0``).

Example
-------
>>> eng = Engine()
>>> order = []
>>> eng.post(2.0, lambda: order.append("b"))
>>> eng.post(1.0, lambda: order.append("a"))
>>> eng.run()
>>> order
['a', 'b']
>>> eng.now
2.0
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError

Action = Callable[..., None]


#: Entry-state markers (slot 2 of a queue entry).
_QUEUED, _FIRED, _CANCELLED = None, "fired", "cancelled"

#: Queue-entry layout: [when, seq, state, action, args, daemon].
_WHEN, _SEQ, _STATE, _ACTION, _ARGS, _DAEMON = range(6)

_NO_ARGS: tuple = ()


class EventHandle:
    """Opaque handle returned by :meth:`Engine.post`, usable for cancellation.

    Cancellation is *lazy*: the event stays in the heap but is skipped when
    it reaches the front.  This keeps ``cancel`` O(1).

    A plain ``__slots__`` class (not a dataclass): one handle is created
    per posted event, so construction must stay a few attribute stores.
    """

    __slots__ = ("time", "seq", "_entry")

    def __init__(self, time: float, seq: int, entry: list) -> None:
        self.time = time
        self.seq = seq
        self._entry = entry

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`Engine.cancel` was called on this handle."""
        return self._entry[_STATE] is _CANCELLED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventHandle(time={self.time!r}, seq={self.seq})"


class Engine:
    """A minimal, deterministic discrete-event simulation core.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.  Defaults to 0.
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after
        processing this many events, catching accidental livelock
        (e.g. two chares ping-ponging forever).  ``None`` disables it.
    """

    def __init__(self, start_time: float = 0.0,
                 max_events: Optional[int] = None) -> None:
        self._now: float = float(start_time)
        self._queue: List[list] = []
        self._seq: int = 0
        self._running: bool = False
        self._events_processed: int = 0
        self._max_events = max_events
        #: Lazily-cancelled entries still sitting in the heap.
        self._cancelled_in_queue: int = 0
        #: Live (queued, not cancelled) daemon entries in the heap.
        self._daemon_live: int = 0

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed since construction."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (not-yet-fired, not-cancelled) events in the queue.

        Cancelled events linger in the heap until they surface, but they
        are excluded here so that quiescence detection (``pending == 0``)
        is not fooled by dead retransmit timers and the like.  Daemon
        events (telemetry ticks) are likewise excluded: they observe the
        simulation but are not part of its workload.
        """
        return len(self._queue) - self._cancelled_in_queue - self._daemon_live

    # -- scheduling -----------------------------------------------------------

    def post(self, when: float, action: Action,
             daemon: bool = False, args: tuple = _NO_ARGS) -> EventHandle:
        """Schedule ``action(*args)`` to run at absolute virtual time *when*.

        With ``daemon=True`` the event is a background event: it fires in
        time order like any other, but does not count toward
        :attr:`pending` and does not keep :meth:`run` going once only
        daemon events remain (telemetry samplers reschedule themselves
        forever; the simulation must still terminate).

        Raises
        ------
        SchedulingError
            If *when* is earlier than the current virtual time.
        """
        if when < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={when!r} before now={self._now!r}")
        seq = self._seq
        entry = [when, seq, None, action, args, daemon]
        self._seq += 1
        heapq.heappush(self._queue, entry)
        if daemon:
            self._daemon_live += 1
        return EventHandle(when, seq, entry)

    def post_in(self, delay: float, action: Action,
                daemon: bool = False, args: tuple = _NO_ARGS) -> EventHandle:
        """Schedule ``action(*args)`` to run *delay* seconds from now.

        Negative delays are rejected; a zero delay schedules the action at
        the current instant, after all previously scheduled same-instant
        events.
        """
        if delay < 0.0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.post(self._now + delay, action, daemon=daemon, args=args)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously posted event.  Idempotent; a no-op after
        the event has already fired."""
        entry = handle._entry
        if entry[_STATE] is _QUEUED:
            entry[_STATE] = _CANCELLED
            entry[_ACTION] = None
            entry[_ARGS] = _NO_ARGS
            self._cancelled_in_queue += 1
            if entry[_DAEMON]:
                self._daemon_live -= 1

    # -- execution ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            this virtual time; the clock is then advanced exactly to
            *until*.  If ``None``, run until no non-daemon events remain
            (a self-rescheduling daemon must not keep the run alive).

        Returns
        -------
        float
            The virtual time at which execution stopped.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        try:
            if until is None:
                self._run_all()
            else:
                self._run_bounded(until, strict=False)
                if self._now < until:
                    self._now = until
        finally:
            self._running = False
        return self._now

    # Kept only because benchmarks/e2e/spans.py wraps it by name.
    def run_window(self, bound: float) -> float:
        """Fire every event with ``when < bound``; never force the clock.

        Unlike ``run(until=...)`` the window is exclusive and the clock
        is left at the last fired event, so a later post may still land
        anywhere in ``[now, bound)``.

        Returns the virtual time at which execution stopped.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        try:
            self._run_bounded(bound, strict=True)
        finally:
            self._running = False
        return self._now

    def _run_bounded(self, bound: float, *, strict: bool) -> None:
        """The bounded dispatch loop, shared by :meth:`run` and
        :meth:`run_window`.

        Mirrors :meth:`_run_all` — queue, ``heappop`` and the max-events
        limit in locals, no method call per event — and is the single
        place bounded runs skip lazily-cancelled entries (they are popped
        and accounted here, exactly once).  ``strict`` selects the
        window semantics: inclusive (``when <= bound`` fires, for
        ``run(until=...)``) or exclusive (``when < bound``, for
        :meth:`run_window`).
        """
        queue = self._queue
        pop = heapq.heappop
        max_events = self._max_events
        while queue:
            entry = queue[0]
            if entry[_STATE] is _CANCELLED:
                pop(queue)
                self._cancelled_in_queue -= 1
                continue
            when = entry[_WHEN]
            if when >= bound if strict else when > bound:
                break
            pop(queue)
            if entry[_DAEMON]:
                self._daemon_live -= 1
            entry[_STATE] = _FIRED
            self._now = when
            self._events_processed += 1
            if (max_events is not None
                    and self._events_processed > max_events):
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely a livelock in the simulated system")
            entry[_ACTION](*entry[_ARGS])

    def _run_all(self) -> None:
        """The unbounded dispatch loop: run until quiescence.

        Fires events in time order while ``pending > 0``, with the
        queue, ``heappop`` and the max-events limit held in locals and
        no property/method call per event.  This is the loop every
        simulation spends its life in, so the constant factor matters.
        ``pending > 0`` guarantees a live non-daemon event, so the pop
        loop always fires something; daemon events fire too (in time
        order) but cannot keep the loop alive alone.
        """
        queue = self._queue
        pop = heapq.heappop
        max_events = self._max_events
        while len(queue) - self._cancelled_in_queue - self._daemon_live > 0:
            entry = pop(queue)
            if entry[_STATE] is _CANCELLED:
                self._cancelled_in_queue -= 1
                continue
            if entry[_DAEMON]:
                self._daemon_live -= 1
            entry[_STATE] = _FIRED
            self._now = entry[_WHEN]
            self._events_processed += 1
            if (max_events is not None
                    and self._events_processed > max_events):
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely a livelock in the simulated system")
            entry[_ACTION](*entry[_ARGS])

    # -- debugging -------------------------------------------------------------

    def snapshot(self) -> Tuple[float, int, int]:
        """Return ``(now, pending, processed)`` for logging/assertions."""
        return (self._now, self.pending, self._events_processed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Engine(now={self._now:.9f}, pending={self.pending}, "
                f"processed={self._events_processed})")
