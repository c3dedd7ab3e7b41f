"""The paper's two experimental environments, ready-made.

* :func:`artificial_latency_env` — §5.1's "simulated Grid environment":
  one real cluster partitioned in two halves, with a VMI **delay
  device** injecting a chosen latency between the halves.  Fully
  deterministic.
* :func:`teragrid_env` — the "true Grid computing environment" of
  co-allocated NCSA + ANL TeraGrid nodes: a real WAN link model with
  jitter and contention (seeded, reproducible).
* :func:`single_cluster_env` — a conventional one-cluster machine, used
  by baselines and unit tests.
* :func:`lossy_wan_env` — the artificial-latency grid with WAN fault
  injection (loss / duplication / reordering / flaps) and, by default,
  the reliable ack/retransmit transport riding above it.

All build the same VMI chain shape the paper describes: loopback and
shared-memory first, then the intra-cluster network driver, then (for
grid environments) the delay/fault devices and the wide-area driver.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.core.rts import RuntimeConfig
from repro.errors import ConfigurationError
from repro.grid.environment import GridEnvironment
from repro.obs.health import HealthConfig
from repro.obs.timeseries import SamplingPolicy
from repro.grid.teragrid import DEFAULT_TERAGRID, TeraGridWanModel
from repro.network.chain import DeviceChain
from repro.network.delay import DelayDevice
from repro.network.devices import LanDevice, LoopbackDevice, ShmemDevice, WanDevice
from repro.network.faults import FaultyDevice, LinkFlap
from repro.network.links import LinkModel, myrinet_like, shared_memory
from repro.network.reliable import RetransmitPolicy
from repro.network.striping import StripedDevice
from repro.network.topology import GridTopology
from repro.sim.rand import RandomStreams

#: Self-delivery: scheduling a message to yourself is nearly free.
_LOOPBACK_LINK = LinkModel(name="loopback", latency=0.5e-6, bandwidth=0.0,
                           per_message_overhead=0.5e-6)


def _base_devices():
    """Loopback -> shmem -> LAN: the intra-cluster part of every chain."""
    return [
        LoopbackDevice(_LOOPBACK_LINK),
        ShmemDevice(shared_memory()),
        LanDevice(myrinet_like()),
    ]


def _apply_routing(config: Optional[RuntimeConfig],
                   routing: Optional[str]) -> Optional[RuntimeConfig]:
    """Overlay a collective-routing choice on a (possibly None) config."""
    if routing is None:
        return config
    return replace(config or RuntimeConfig(), collective_routing=routing)


def _wan_device(link: LinkModel, wan_streams: int):
    """Pick the WAN transport for a preset.

    ``wan_streams == 0`` (the default) keeps the legacy uncontended
    :class:`WanDevice` — concurrent cross-cluster messages do not share
    anything, which is the paper's pure delay-device model and keeps
    existing results bit-identical.  ``wan_streams >= 1`` models the WAN
    as that many paced TCP streams via
    :class:`~repro.network.striping.StripedDevice` (``1`` = a single
    window-limited stream whose serialization queues FIFO).
    """
    if wan_streams >= 1:
        return StripedDevice(link, streams=wan_streams)
    return WanDevice(link)


def single_cluster_env(num_pes: int, *, seed: int = 0,
                       config: Optional[RuntimeConfig] = None,
                       trace: bool = False, stats: bool = True,
                       object_stats: bool = True,
                       max_events: Optional[int] = None,
                       sampling: Union[bool, SamplingPolicy, None] = None,
                       health: Union[bool, HealthConfig, None] = None,
                       profile: bool = False
                       ) -> GridEnvironment:
    """A conventional cluster: no wide area anywhere."""
    topo = GridTopology.single_cluster(num_pes)
    chain = DeviceChain(_base_devices())
    return GridEnvironment(topo, chain, seed=seed, config=config,
                           trace=trace, stats=stats,
                           object_stats=object_stats,
                           max_events=max_events,
                           sampling=sampling, health=health,
                           profile=profile)


def artificial_latency_env(num_pes: int, latency: float, *, seed: int = 0,
                           config: Optional[RuntimeConfig] = None,
                           routing: Optional[str] = None,
                           wan_streams: int = 0,
                           trace: bool = False, stats: bool = True,
                           object_stats: bool = True,
                           max_events: Optional[int] = None,
                           sampling: Union[bool, SamplingPolicy, None] = None,
                           health: Union[bool, HealthConfig, None] = None,
                           profile: bool = False
                           ) -> GridEnvironment:
    """The paper's simulated Grid: delay device between two halves.

    Parameters
    ----------
    num_pes:
        Total processors, split evenly (must be even; the paper uses
        2, 4, 8, 16, 32, 64).
    latency:
        Injected one-way cross-"cluster" latency in **seconds** (the
        paper sweeps 0-32 ms for the stencil, 1-256 ms for LeanMD).
    routing:
        Collective downward routing: ``None`` keeps whatever *config*
        says (default flat), ``"flat"``/``"hierarchical"`` override it.
    wan_streams:
        ``0`` (default) keeps the legacy uncontended WAN transport;
        ``>= 1`` models the wide area as that many paced TCP streams
        (see :func:`_wan_device`).

    The "wide-area" transport is the same Myrinet-class link as the
    LAN — exactly the paper's setup, where both halves live in one real
    cluster and only the delay device differentiates them.
    """
    if latency < 0:
        raise ConfigurationError(f"negative artificial latency {latency}")
    topo = GridTopology.two_cluster(num_pes)
    devices = _base_devices()
    devices.append(DelayDevice(latency))
    devices.append(_wan_device(myrinet_like(name="wan-artificial"),
                               wan_streams))
    chain = DeviceChain(devices)
    return GridEnvironment(topo, chain, seed=seed,
                           config=_apply_routing(config, routing),
                           trace=trace, stats=stats,
                           object_stats=object_stats,
                           max_events=max_events,
                           sampling=sampling, health=health,
                           profile=profile)


def multi_cluster_env(cluster_sizes, latency: float, *, seed: int = 0,
                      config: Optional[RuntimeConfig] = None,
                      routing: Optional[str] = None,
                      trace: bool = False, stats: bool = True,
                      object_stats: bool = True,
                      max_events: Optional[int] = None,
                      sampling: Union[bool, SamplingPolicy, None] = None,
                      health: Union[bool, HealthConfig, None] = None,
                      profile: bool = False
                      ) -> GridEnvironment:
    """The artificial-latency grid generalized to N co-allocated clusters.

    Same chain shape as :func:`artificial_latency_env` — the delay
    device injects *latency* between every cross-cluster pair — but over
    ``len(cluster_sizes)`` clusters of the given sizes.  The repo
    benchmark's 64-PE stencil workloads run on eight clusters of eight.
    """
    if latency < 0:
        raise ConfigurationError(f"negative artificial latency {latency}")
    topo = GridTopology(list(cluster_sizes))
    devices = _base_devices()
    devices.append(DelayDevice(latency))
    devices.append(WanDevice(myrinet_like(name="wan-artificial")))
    chain = DeviceChain(devices)
    return GridEnvironment(topo, chain, seed=seed,
                           config=_apply_routing(config, routing),
                           trace=trace, stats=stats,
                           object_stats=object_stats,
                           max_events=max_events,
                           sampling=sampling, health=health,
                           profile=profile)


def lossy_wan_env(num_pes: int, latency: float, *,
                  loss: float = 0.05, duplication: float = 0.01,
                  reordering: float = 0.05,
                  reorder_delay: Optional[float] = None,
                  flap: Optional[LinkFlap] = None,
                  reliable: Union[bool, RetransmitPolicy] = True,
                  seed: int = 0,
                  config: Optional[RuntimeConfig] = None,
                  routing: Optional[str] = None,
                  wan_streams: int = 0,
                  trace: bool = False, stats: bool = True,
                  max_events: Optional[int] = None,
                  sampling: Union[bool, SamplingPolicy, None] = None,
                  health: Union[bool, HealthConfig, None] = None,
                  profile: bool = False
                  ) -> GridEnvironment:
    """The artificial-latency grid over a *hostile* wide area.

    Same two-half topology and delay device as
    :func:`artificial_latency_env`, with a
    :class:`~repro.network.faults.FaultyDevice` in the chain that drops,
    duplicates and reorders cross-cluster messages (plus optional
    :class:`~repro.network.faults.LinkFlap` outages) from its own seeded
    RNG stream — two same-seed runs fault bit-identically.

    Parameters
    ----------
    num_pes:
        Total processors, split evenly between the two halves.
    latency:
        Injected one-way cross-cluster latency in seconds.
    loss, duplication, reordering:
        Per-message fault probabilities on the WAN (each in [0, 1]).
    reorder_delay:
        Mean hold-back of reordered messages; defaults to half the
        injected latency (enough to overtake in a jitter-free run).
    flap:
        Optional outage schedule.
    reliable:
        ``True`` (default) runs the runtime over the ack/retransmit
        :class:`~repro.network.reliable.ReliableTransport`; pass a
        :class:`~repro.network.reliable.RetransmitPolicy` to tune it, or
        ``False`` to expose the raw lossy fabric (deadlocks and
        duplicate-delivery faults become *application-visible* — useful
        only for demonstrating why the reliable layer exists).
    """
    if latency < 0:
        raise ConfigurationError(f"negative artificial latency {latency}")
    if reorder_delay is None:
        reorder_delay = max(latency / 2.0, 1e-4)
    topo = GridTopology.two_cluster(num_pes)
    devices = _base_devices()
    devices.append(FaultyDevice(
        loss, duplication, reordering, reorder_delay=reorder_delay,
        rng=RandomStreams(seed).get("wan-faults"), flap=flap,
        name="wan-faults"))
    devices.append(DelayDevice(latency))
    devices.append(_wan_device(myrinet_like(name="wan-lossy"), wan_streams))
    chain = DeviceChain(devices)
    return GridEnvironment(topo, chain, seed=seed,
                           config=_apply_routing(config, routing),
                           trace=trace, stats=stats, max_events=max_events,
                           reliable=reliable,
                           sampling=sampling, health=health,
                           profile=profile)


def teragrid_env(num_pes: int, *, seed: int = 0,
                 model: TeraGridWanModel = DEFAULT_TERAGRID,
                 config: Optional[RuntimeConfig] = None,
                 trace: bool = False, stats: bool = True,
                 max_events: Optional[int] = None,
                 sampling: Union[bool, SamplingPolicy, None] = None,
                 health: Union[bool, HealthConfig, None] = None,
                 profile: bool = False
                 ) -> GridEnvironment:
    """The real co-allocated NCSA+ANL environment (jitter + contention)."""
    topo = GridTopology.two_cluster(num_pes, names=("ncsa", "anl"))
    devices = _base_devices()
    devices.append(model.device())
    chain = DeviceChain(devices)
    return GridEnvironment(topo, chain, seed=seed, config=config,
                           trace=trace, stats=stats, max_events=max_events,
                           sampling=sampling, health=health,
                           profile=profile)
