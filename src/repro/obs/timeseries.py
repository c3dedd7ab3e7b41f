"""Fixed-memory virtual-time telemetry: ring-buffer series + sampler.

Batch tracing (:class:`~repro.sim.trace.Tracer`) answers *what happened*
after the run; the streaming aggregator answers *how much overall*.
Neither answers "what was the queue depth doing around t=40 ms?" without
storing every event.  This module adds the missing middle layer:

* :class:`TimeSeries` — a bounded sequence of ``(virtual_time, value)``
  points.  When the buffer fills, adjacent pairs are merged (averaged)
  and the per-point sample count doubles, so an arbitrarily long run
  always fits in O(capacity) memory at progressively coarser resolution
  — the classic doubling-downsample trick.
* :class:`SamplingPolicy` — cadence/capacity/smoothing knobs.
* :class:`TelemetrySampler` — a daemon event on the simulation engine
  (``Engine.post_in(..., daemon=True)``) that wakes every *interval*
  virtual seconds and records per-PE utilization (windowed, then
  EMA-smoothed), scheduler queue depth, in-flight WAN traffic,
  retransmit rate and the online masked-latency fraction; each sample is
  also offered to a :class:`~repro.obs.health.HealthMonitor` so watchdog
  rules run *during* the simulation, not after it.

Every value the sampler records or reports is read off the simulated
run, so two same-seed runs produce equal :meth:`TelemetrySampler.summary`
dicts.  Its host-time cost is measured from outside the library, by
the sampling bar in ``benchmarks/perf_smoke.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Eight-level block characters for terminal sparklines.
_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def render_sparkline(values: List[float], width: int = 40) -> str:
    """A one-line unicode sparkline of *values*, resampled to *width*."""
    if not values:
        return ""
    if len(values) > width:
        # Average contiguous chunks down to `width` cells.
        chunk = len(values) / width
        resampled = []
        for i in range(width):
            lo = int(i * chunk)
            hi = max(int((i + 1) * chunk), lo + 1)
            window = values[lo:hi]
            resampled.append(sum(window) / len(window))
        values = resampled
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_CHARS[0] * len(values)
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_SPARK_CHARS) - 1))
        out.append(_SPARK_CHARS[idx])
    return "".join(out)


class TimeSeries:
    """A bounded ``(virtual_time, value)`` series with 2x downsampling.

    Parameters
    ----------
    name:
        Dotted metric-style name (``"util.mean_ema"``).
    capacity:
        Maximum retained points (must be even, >= 2).  Memory is
        O(capacity) forever: on overflow, adjacent point pairs are
        averaged into one and every retained point then represents
        twice as many raw samples (:attr:`bucket_count`).
    """

    __slots__ = ("name", "capacity", "bucket_count", "points",
                 "_acc_t", "_acc_v", "_acc_n", "samples")

    def __init__(self, name: str, capacity: int = 256) -> None:
        if capacity < 2 or capacity % 2:
            raise ConfigurationError(
                f"timeseries capacity must be even and >= 2: {capacity}")
        self.name = name
        self.capacity = capacity
        #: Raw samples folded into each retained point (doubles on
        #: overflow; power of two by construction).
        self.bucket_count = 1
        self.points: List[Tuple[float, float]] = []
        self._acc_t = 0.0
        self._acc_v = 0.0
        self._acc_n = 0
        #: Total raw samples ever offered.
        self.samples = 0

    def add(self, t: float, value: float) -> None:
        """Record one raw sample at virtual time *t*."""
        self.samples += 1
        self._acc_t += t
        self._acc_v += value
        self._acc_n += 1
        if self._acc_n < self.bucket_count:
            return
        self.points.append((self._acc_t / self._acc_n,
                            self._acc_v / self._acc_n))
        self._acc_t = self._acc_v = 0.0
        self._acc_n = 0
        if len(self.points) == self.capacity:
            self._downsample()

    def _downsample(self) -> None:
        merged = []
        for i in range(0, len(self.points), 2):
            (t0, v0), (t1, v1) = self.points[i], self.points[i + 1]
            merged.append(((t0 + t1) / 2.0, (v0 + v1) / 2.0))
        self.points = merged
        self.bucket_count *= 2

    def __len__(self) -> int:
        return len(self.points)

    def times(self) -> List[float]:
        return [t for t, _v in self.points]

    def values(self) -> List[float]:
        return [v for _t, v in self.points]

    @property
    def last(self) -> Optional[float]:
        """Most recent retained value (``None`` before any point lands)."""
        if self._acc_n:
            return self._acc_v / self._acc_n
        return self.points[-1][1] if self.points else None

    def sparkline(self, width: int = 40) -> str:
        return render_sparkline(self.values(), width)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "samples": self.samples,
            "bucket_count": self.bucket_count,
            "points": [[t, v] for t, v in self.points],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TimeSeries({self.name}: {len(self.points)} pts, "
                f"x{self.bucket_count})")


@dataclass(frozen=True)
class SamplingPolicy:
    """Cadence knobs for the telemetry sampler."""

    #: Virtual seconds between samples.  The default suits the paper's
    #: millisecond-class step times (a few samples per stencil step).
    interval: float = 1e-3
    #: Per-series retained points (see :class:`TimeSeries`).
    capacity: int = 256
    #: EMA smoothing factor for utilization / idle-fraction series.
    ema_alpha: float = 0.3
    #: Record a ``pe.N.util_ema`` series per PE (cheap up to ~64 PEs).
    per_pe_series: bool = True

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(
                f"sampling interval must be > 0: {self.interval}")
        if not (0.0 < self.ema_alpha <= 1.0):
            raise ConfigurationError(
                f"ema_alpha must be in (0, 1]: {self.ema_alpha}")


class TelemetrySampler:
    """Periodic daemon event sampling runtime health onto time series.

    Parameters
    ----------
    engine:
        The simulation engine (provides the virtual clock and daemon
        scheduling; daemon ticks never keep a run alive or perturb
        quiescence detection).
    runtime:
        The message-driven runtime whose PEs are sampled.
    policy:
        Cadence/capacity knobs; ``None`` uses defaults.
    transport:
        The fabric or reliable transport (for in-flight / retransmit
        gauges).
    aggregator:
        Streaming trace aggregator supplying the online masked-latency
        fraction; optional.
    monitor:
        A :class:`~repro.obs.health.HealthMonitor` offered every sample;
        events it emits accumulate in :attr:`health_events`.
    """

    def __init__(self, engine, runtime, policy: Optional[SamplingPolicy] = None,
                 *, transport, aggregator=None, monitor=None) -> None:
        self.engine = engine
        self.runtime = runtime
        self.policy = policy or SamplingPolicy()
        self.transport = transport
        self.aggregator = aggregator
        self.monitor = monitor
        self.enabled = True
        self.series: Dict[str, TimeSeries] = {}
        self.health_events: List = []
        self.ticks = 0
        self._started = False
        self._last_t: Optional[float] = None
        self._prev_busy: Dict[int, float] = {}
        self._util_ema: Dict[int, float] = {}
        self._idle_ema: Optional[float] = None
        #: lane -> cumulative busy seconds at the previous tick (for
        #: windowed per-link busy-fraction series from the flight
        #: recorder's online link fold).
        self._prev_link_busy: Dict[str, float] = {}
        #: (retransmits, WAN sends) at the previous tick.
        self._prev_retx = (0, 0)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Schedule the first tick (idempotent)."""
        if self._started:
            return
        self._started = True
        self.engine.post_in(self.policy.interval, self._tick, daemon=True)

    def stop(self) -> None:
        """Stop sampling: the next tick fires but records nothing and
        does not reschedule."""
        self.enabled = False

    # -- sampling ---------------------------------------------------------

    def _series(self, name: str) -> TimeSeries:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = TimeSeries(name, self.policy.capacity)
        return s

    def _ema(self, prev: Optional[float], value: float) -> float:
        if prev is None:
            return value
        a = self.policy.ema_alpha
        return prev + a * (value - prev)

    def _tick(self) -> None:
        if not self.enabled:
            return
        self._sample(self.engine.now)
        self.ticks += 1
        self.engine.post_in(self.policy.interval, self._tick, daemon=True)

    def _sample(self, now: float) -> None:
        window = (now - self._last_t) if self._last_t is not None \
            else self.policy.interval
        self._last_t = now
        alpha = self.policy.ema_alpha

        pes = self.runtime.scheduler.pes
        executions = 0
        queue_depth = 0
        utils = []
        for ps in pes:
            executions += ps.stats.executions
            queue_depth += len(ps.queue)
            prev_busy = self._prev_busy.get(ps.pe, 0.0)
            delta = ps.stats.busy_time - prev_busy
            self._prev_busy[ps.pe] = ps.stats.busy_time
            util = min(delta / window, 1.0) if window > 0 else 0.0
            ema = self._util_ema.get(ps.pe)
            ema = util if ema is None else ema + alpha * (util - ema)
            self._util_ema[ps.pe] = ema
            utils.append(ema)
            if self.policy.per_pe_series:
                self._series(f"pe.{ps.pe}.util_ema").add(now, ema)

        mean_util = sum(utils) / len(utils) if utils else 0.0
        max_util = max(utils) if utils else 0.0
        self._idle_ema = self._ema(self._idle_ema, 1.0 - mean_util) \
            if utils else self._idle_ema
        idle = self._idle_ema if self._idle_ema is not None else 0.0
        self._series("util.mean_ema").add(now, mean_util)
        self._series("util.max_ema").add(now, max_util)
        self._series("idle.fraction_ema").add(now, idle)
        self._series("queue.depth").add(now, queue_depth)

        wan_in_flight = self.transport.wan_in_flight
        wan_sent = self.transport.wan_sent
        rstats = getattr(self.transport, "rstats", None)
        retransmits = rstats.retransmits if rstats is not None else 0
        self._series("wan.in_flight").add(now, wan_in_flight)
        if rstats is not None:
            self._series("arq.in_flight").add(now, self.transport.in_flight)

        masked = None
        if self.aggregator is not None:
            masked = self.aggregator.masked_latency_fraction
            self._series("wan.masked_fraction").add(now, masked)

        # Per-WAN-lane windowed busy fraction from the flight recorder's
        # online link fold (deltas of cumulative serialization seconds).
        max_link_busy = None
        if self.aggregator is not None:
            for lane, usage in self.aggregator.link_usage().items():
                if not usage.wan:
                    continue
                prev = self._prev_link_busy.get(lane, 0.0)
                self._prev_link_busy[lane] = usage.busy_s
                frac = min((usage.busy_s - prev) / window, 1.0) \
                    if window > 0 else 0.0
                self._series(f"net.{lane}.busy").add(now, frac)
                if max_link_busy is None or frac > max_link_busy:
                    max_link_busy = frac
            if max_link_busy is not None:
                self._series("net.max_link_busy").add(now, max_link_busy)

        # Longest single execution in this window from the object fold
        # (harvested every tick so the window always spans one interval).
        top_grain = top_grain_obj = None
        objview = self.aggregator.objview \
            if self.aggregator is not None else None
        if objview is not None:
            top_grain, top_grain_obj = objview.harvest_window()
            self._series("obj.top_grain_s").add(now, top_grain)

        if self.monitor is not None:
            from repro.obs.health import HealthSample
            sample = HealthSample(
                t=now, executions=executions,
                utilization=dict(self._util_ema),
                idle_fraction=idle, queue_depth=queue_depth,
                wan_in_flight=wan_in_flight, wan_sends=wan_sent,
                retransmits=retransmits, masked_fraction=masked,
                max_link_busy=max_link_busy,
                top_grain_s=top_grain, top_grain_obj=top_grain_obj)
            events = self.monitor.observe(sample)
            if events:
                self.health_events.extend(events)
            # Rate series fed from the monitor's windowed delta so the
            # watchdog and the plot see identical numbers.
            self._series("wan.retransmit_rate").add(
                now, self.monitor.last_retransmit_rate)
        else:
            # No monitor: compute the windowed rate locally.
            prev = self._prev_retx
            d_retx = retransmits - prev[0]
            d_sent = wan_sent - prev[1]
            self._prev_retx = (retransmits, wan_sent)
            rate = d_retx / d_sent if d_sent > 0 else 0.0
            self._series("wan.retransmit_rate").add(now, rate)

    # -- reporting --------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest: per-series last/min/max + health events."""
        out: Dict[str, object] = {
            "ticks": self.ticks,
            "interval_s": self.policy.interval,
            "series": {},
        }
        for name in sorted(self.series):
            s = self.series[name]
            vals = s.values()
            if not vals:
                continue
            out["series"][name] = {
                "last": vals[-1],
                "min": min(vals),
                "max": max(vals),
                "points": len(vals),
                "bucket_count": s.bucket_count,
            }
        out["health_events"] = [e.to_dict() for e in self.health_events]
        return out

    def render(self, width: int = 40) -> str:
        """Terminal rendering: one sparkline row per series."""
        lines = [f"telemetry: {self.ticks} samples @ "
                 f"{self.policy.interval * 1e3:g} ms virtual"]
        name_w = max((len(n) for n in self.series), default=0)
        for name in sorted(self.series):
            s = self.series[name]
            if not s.points:
                continue
            last = s.values()[-1]
            lines.append(f"  {name:<{name_w}}  {s.sparkline(width)}  "
                         f"last={last:.4g}")
        return "\n".join(lines)
