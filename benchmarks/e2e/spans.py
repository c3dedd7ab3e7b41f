"""Outside-in span tracer: per-layer host time without touching ``src/``.

The benchmark measures each simulator layer from the outside.  For one
traced rep, :class:`SpanTracer` replaces the layer's entry points (class
attributes and module functions, listed in :func:`layer_targets`) with a
timing shim, and restores the originals on exit.  Wrappers must be
installed before the environment is built, because bound methods taken
at build time (``scheduler.deliver`` handed to the fabric, say) keep
whatever function the class held then.

Each span records its layer and its start and end times and keeps a
stack; a finished span adds its duration, plus the calibrated per-span
cost of the shim itself, to its parent's child time.  A layer's self
time is its span time minus its child time, so over one run

    sum(self time of every layer) + nested spans * span cost
        == host time inside outermost spans

Root spans (the engine's run loops) open the accounting; a non-root entry point called outside any root
(application launch, environment build) passes straight through, so
set-up work is never charged to a layer.  Results are aggregated in
memory per ``(layer, function)`` and read once the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from typing import Callable, Dict, List, Tuple

#: Layer names, in report order.
LAYERS = ("engine", "scheduler", "app", "rts", "fabric", "chain",
          "trace")

#: The trace-sink surface every recorder implements.
SINK_METHODS = ("begin_execute", "end_execute", "message_sent",
                "message_delivered", "message_dropped", "message_hops")


def layer_targets() -> List[Tuple[str, object, str, bool]]:
    """``(layer, owner, attribute, is_root)`` for every wrapped entry point.

    Only attributes an owner defines itself are listed, so a subclass
    inheriting a wrapped method is traced through its base class.
    """
    from repro.core.rts import Runtime
    from repro.core.scheduler import Scheduler
    from repro.network import devices, striping
    from repro.network.chain import DeviceChain
    from repro.network.fabric import NetworkFabric
    from repro.sim.engine import Engine
    from repro.sim.trace import TraceAggregator, TraceFanout, Tracer

    targets = [
        ("engine", Engine, "run", True),
        ("engine", Engine, "run_window", True),
        ("scheduler", Scheduler, "deliver", False),
        ("scheduler", Scheduler, "_finish", False),
        ("app", Scheduler, "_run_invocation", False),
        ("rts", Runtime, "send", False),
        ("rts", Runtime, "broadcast", False),
        ("rts", Runtime, "contribute", False),
        ("fabric", NetworkFabric, "send", False),
        ("fabric", NetworkFabric, "inject", False),
        ("fabric", NetworkFabric, "_deliver_plain", False),
        ("fabric", NetworkFabric, "_deliver_traced", False),
        ("chain", DeviceChain, "resolve", False),
    ]
    for module in (devices, striping):
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and "transit" in vars(cls)):
                targets.append(("chain", cls, "transit", False))
    for cls in (TraceAggregator, TraceFanout, Tracer):
        for name in SINK_METHODS:
            if name in vars(cls):
                targets.append(("trace", cls, name, False))
    return targets


class Patcher:
    """Replaces module or class attributes and restores them on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str,
                make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.name`` to ``make(original)``; undone by :meth:`restore`."""
        original = vars(owner)[name]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner.__name__}.{name} is not a plain function")
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class SpanTracer(Patcher):
    """Wraps layer entry points with spans for the duration of a ``with``.

    ``records[(layer, function)]`` holds ``[calls, total_s, self_s]``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._targets = layer_targets()
        self._stack: List[List[float]] = []
        #: Host time one span adds to its parent beyond the wrapped call,
        #: calibrated on a no-op when the tracer is entered.
        self.span_cost_s = 0.0
        self.records: Dict[Tuple[str, str], List[float]] = {}
        #: Spans that ran inside another span, and host time inside
        #: outermost spans: the two sides of the accounting identity.
        self.nested_spans = 0
        self.top_level_s = 0.0

    def __enter__(self) -> "SpanTracer":
        self.calibrate()
        try:
            for layer, owner, name, root in self._targets:
                short = owner.__name__.rsplit(".", 1)[-1]
                key = (layer, f"{short}.{name}")
                rec = self.records.setdefault(key, [0, 0.0, 0.0])
                self.replace(owner, name,
                             lambda fn, rec=rec, root=root:
                             self._span(fn, rec, root))
        except BaseException:
            self.restore()
            raise
        return self

    def _span(self, fn: Callable, rec: List[float], root: bool) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - children[0]
                if stack:
                    stack[-1][0] += dur + tracer.span_cost_s
                    tracer.nested_spans += 1
                else:
                    tracer.top_level_s += dur

        return span

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> float:
        """Measure the parent-side cost of one span on a no-op.

        A root span loops over *calls* wrapped no-ops; its self time,
        less the same loop over the bare no-op, is what the shims cost
        the parent.  The median over *repeats* is kept.
        """
        def noop():
            return None

        child_rec = [0, 0.0, 0.0]
        root_rec = [0, 0.0, 0.0]
        wrapped = self._span(noop, child_rec, root=False)

        def traced_loop():
            for _ in range(calls):
                wrapped()

        root = self._span(traced_loop, root_rec, root=True)
        clock = time.perf_counter
        saved = (self.nested_spans, self.top_level_s)
        self.span_cost_s = 0.0
        samples = []
        try:
            for _ in range(repeats):
                t0 = clock()
                for _ in range(calls):
                    noop()
                bare = clock() - t0
                root_rec[2] = 0.0
                root()
                samples.append(max(0.0, (root_rec[2] - bare) / calls))
        finally:
            self.nested_spans, self.top_level_s = saved
        self.span_cost_s = statistics.median(samples)
        return self.span_cost_s

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "total_s", "self_s"}}`` over every layer."""
        out = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for layer in LAYERS}
        for (layer, _fn), (calls, total, self_s) in self.records.items():
            agg = out[layer]
            agg["calls"] += calls
            agg["total_s"] += total
            agg["self_s"] += self_s
        return out
