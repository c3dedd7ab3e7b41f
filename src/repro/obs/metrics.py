"""A pull-only metrics registry over the run's existing stat structs.

Runtime statistics live where the code that owns each event keeps
them: the engine's counters, ``FabricStats``, ``ReliableStats``,
``PeStats`` and the per-PE queue gauges.  :class:`MetricsRegistry` puts
one queryable surface over all of them without adding any per-event
work: each source registers a *collector* — a callable returning a
``{name: value}`` mapping — via :meth:`MetricsRegistry.register_collector`,
and the registry calls every collector at snapshot time.  Nothing is
pushed into the registry, so it holds no state of its own beyond the
collector list.

:meth:`MetricsRegistry.snapshot` merges the collectors into a flat,
JSON-friendly dict.  Metric names are dotted paths
(``"fabric.wan-artificial.messages"``, ``"pe.3.queue_hwm"``); the
registry imposes no schema beyond name uniqueness across collectors.

Each :class:`~repro.grid.environment.GridEnvironment` owns a private
registry (``env.metrics``) wired to its engine, fabric, reliable
transport and PEs, so two simulations never share values.  Trace
statistics are not mirrored here: they live in the run's one fold,
:class:`~repro.sim.trace.TraceAggregator`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError

MetricValue = Union[int, float]
Collector = Callable[[], Mapping[str, MetricValue]]


class MetricsRegistry:
    """Pull collectors, snapshot-able as one flat dict."""

    def __init__(self) -> None:
        self._collectors: List[Tuple[str, Collector]] = []

    def register_collector(self, name: str, collector: Collector) -> None:
        """Register a pull source consulted at snapshot time.

        *collector* returns a ``{metric_name: value}`` mapping; *name*
        identifies the source in error messages and allows replacement
        (re-registering a name overwrites the previous collector, so an
        environment can re-wire after swapping a fabric).
        """
        for i, (existing, _fn) in enumerate(self._collectors):
            if existing == name:
                self._collectors[i] = (name, collector)
                return
        self._collectors.append((name, collector))

    # -- querying --------------------------------------------------------

    def snapshot(self) -> Dict[str, MetricValue]:
        """Flat ``{name: value}`` view of every collector's metrics.

        Two collectors reporting the same name raise
        :class:`~repro.errors.ConfigurationError`: one silently
        shadowing the other is precisely the bug this check prevents.
        """
        out: Dict[str, MetricValue] = {}
        for source, collector in self._collectors:
            values = collector()
            for name, value in values.items():
                if name in out:
                    raise ConfigurationError(
                        f"collector {source!r} redefines metric {name!r}")
                out[name] = value
        return dict(sorted(out.items()))

    def get(self, name: str, default: Optional[MetricValue] = None
            ) -> Optional[MetricValue]:
        """One metric's current value (snapshot semantics)."""
        return self.snapshot().get(name, default)

    def render(self) -> str:
        """Aligned text table of the current snapshot (for logs/CLI)."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics)"
        width = max(len(k) for k in snap)
        lines = []
        for key, value in snap.items():
            if isinstance(value, float):
                lines.append(f"{key:<{width}}  {value:.6g}")
            else:
                lines.append(f"{key:<{width}}  {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry(collectors={len(self._collectors)})"
