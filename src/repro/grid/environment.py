"""Assembly of a complete simulated Grid environment.

:class:`GridEnvironment` wires together the pieces every experiment
needs — engine, topology, VMI chain, fabric, tracer, RNG streams, the
observability surface (a pull-only metrics registry plus the streaming
trace aggregation), and the message-driven runtime — so application
drivers and benchmarks deal with a single object.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.rts import Runtime, RuntimeConfig
from repro.errors import ConfigurationError
from repro.network.chain import DeviceChain
from repro.network.fabric import NetworkFabric
from repro.network.reliable import ReliableTransport, RetransmitPolicy
from repro.network.topology import GridTopology
from repro.obs.health import HealthConfig, HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import SamplingPolicy, TelemetrySampler
from repro.sim.engine import Engine
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceAggregator, Tracer


class GridEnvironment:
    """One ready-to-run simulated grid.

    :attr:`metrics` is a pull-only
    :class:`~repro.obs.metrics.MetricsRegistry` over the engine, fabric,
    reliable-transport (when ``reliable``) and per-PE stat structs.  It
    has the same keys whatever ``trace``, ``stats`` and
    ``object_stats`` say; trace statistics are read from
    :attr:`aggregator` instead.

    Parameters
    ----------
    topology:
        Machine layout (usually from :meth:`GridTopology.two_cluster`).
    chain:
        VMI send chain (see :mod:`repro.grid.presets` for the paper's).
    seed:
        Root seed for all named RNG streams.
    config:
        Runtime constants; ``None`` uses defaults.
    trace:
        Enable full Projections-style tracing: the streaming aggregator
        plus an event store (memory grows with event count; needed for
        timelines, causal graphs and Chrome-trace export).  The one
        :class:`~repro.sim.trace.Tracer` is then both :attr:`tracer`
        and :attr:`aggregator`, so it implies ``stats``.  Without it
        :attr:`tracer` is ``None``.
    stats:
        Enable streaming trace aggregation (default on): PE
        utilization, per-entry profiles and the masked-latency fraction
        computed online in O(PEs + entries) memory, cheap enough for
        full benchmark sweeps.  Available as :attr:`aggregator`.
    object_stats:
        Keep per-object profiles and the object×object communication
        matrix inside the streaming aggregator (default on; see
        :class:`~repro.sim.trace.ObjectFold`).  Turn off to measure the
        aggregator at its pre-object-view cost (perf-smoke baseline) or
        to shed the per-object memory in enormous sweeps.  Ignored when
        neither ``stats`` nor ``trace`` is on.
    max_events:
        Engine safety valve against livelock; ``None`` disables.
    reliable:
        Run the runtime over a
        :class:`~repro.network.reliable.ReliableTransport` (ack /
        retransmit / dedup above the fabric).  ``True`` uses the default
        :class:`~repro.network.reliable.RetransmitPolicy`; pass a policy
        to tune it.  Required for correctness whenever the chain carries
        a :class:`~repro.network.faults.FaultyDevice`.
    sampling:
        Enable the fixed-memory telemetry sampler
        (:class:`~repro.obs.timeseries.TelemetrySampler`): ``True`` for
        the default :class:`~repro.obs.timeseries.SamplingPolicy`, or a
        policy to tune cadence / capacity.  Available as
        :attr:`sampler`.
    health:
        Enable the rule-based watchdog
        (:class:`~repro.obs.health.HealthMonitor`): ``True`` for the
        default :class:`~repro.obs.health.HealthConfig`, or a config to
        tune thresholds.  Implies ``sampling`` (the watchdog feeds on
        sampler snapshots), so an explicitly false ``sampling`` with
        ``health`` raises :class:`~repro.errors.ConfigurationError`.
        Fired events are at :attr:`health_events`.
    """

    def __init__(self, topology: GridTopology, chain: DeviceChain, *,
                 seed: int = 0, config: Optional[RuntimeConfig] = None,
                 trace: bool = False, stats: bool = True,
                 object_stats: bool = True,
                 max_events: Optional[int] = None,
                 reliable: Union[bool, RetransmitPolicy, None] = None,
                 sampling: Union[bool, SamplingPolicy, None] = None,
                 health: Union[bool, HealthConfig, None] = None) -> None:
        if health and sampling is not None and not sampling:
            raise ConfigurationError(
                "health needs the telemetry sampler (the watchdog feeds "
                f"on its snapshots); got sampling={sampling!r}")
        self.topology = topology
        self.chain = chain
        self.streams = RandomStreams(seed)
        self.engine = Engine(max_events=max_events)
        self.metrics = MetricsRegistry()
        self.tracer: Optional[Tracer] = None
        self.aggregator: Optional[TraceAggregator] = None
        if trace:
            self.tracer = self.aggregator = Tracer(objects=object_stats)
        elif stats:
            self.aggregator = TraceAggregator(objects=object_stats)
        if health and sampling is None:
            sampling = True
        sampling_policy: Optional[SamplingPolicy]
        if isinstance(sampling, SamplingPolicy):
            sampling_policy = sampling
        else:
            sampling_policy = SamplingPolicy() if sampling else None
        self.sampling_policy = sampling_policy
        self.fabric = NetworkFabric(
            self.engine, topology, chain,
            rng=self.streams.get("network"),
            tracer=self.aggregator)
        if reliable:
            policy = reliable if isinstance(reliable, RetransmitPolicy) \
                else None
            self.transport = ReliableTransport(self.fabric, policy)
        else:
            self.transport = self.fabric
        self.runtime = Runtime(self.engine, self.transport, config)
        if health:
            cfg = health if isinstance(health, HealthConfig) else None
            self.monitor: Optional[HealthMonitor] = HealthMonitor(cfg)
        else:
            self.monitor = None
        if sampling_policy is not None:
            self.sampler: Optional[TelemetrySampler] = TelemetrySampler(
                self.engine, self.runtime, sampling_policy,
                transport=self.transport, aggregator=self.aggregator,
                monitor=self.monitor)
            self.sampler.start()
        else:
            self.sampler = None
        self._register_collectors()

    @property
    def health_events(self):
        """All watchdog events fired so far, in firing order."""
        if self.sampler is not None:
            return list(self.sampler.health_events)
        return []

    def _register_collectors(self) -> None:
        """Register the pull collectors behind :attr:`metrics`."""
        m = self.metrics
        engine = self.engine
        m.register_collector("engine", lambda: {
            "engine.events_processed": engine.events_processed,
            "engine.pending": engine.pending,
        })
        m.register_collector(
            "fabric", lambda: self.fabric.stats.as_metrics())
        if isinstance(self.transport, ReliableTransport):
            transport = self.transport
            m.register_collector(
                "reliable", lambda: transport.rstats.as_metrics())

        def pe_metrics():
            out = {}
            for ps in self.runtime.scheduler.pes:
                out.update(ps.stats.as_metrics(ps.pe))
                out.update(ps.queue_metrics())
            return out

        m.register_collector("pes", pe_metrics)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.engine.now

    def run(self, until: Optional[float] = None) -> float:
        """Drain the simulation; returns final virtual time."""
        return self.runtime.run(until)

    def describe(self) -> str:
        """Human-readable one-liner for logs and reports."""
        return (f"{self.topology.describe()} via "
                f"{' -> '.join(d.name for d in self.chain.devices)}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GridEnvironment({self.describe()})"
