"""The fabric's per-pair route table against a walk of the chain.

Every environment sends two messages per ordered PE pair at t = 0: the
first walks the chain, the second hits the table when every device the
walk touched is pair-static.  A hit must charge, count, record and
deliver exactly what a walk does; a pair whose walk reaches a fault or
compression device must be walked for every message.
"""

from __future__ import annotations

import math

import pytest

from repro.grid.environment import GridEnvironment
from repro.grid.presets import (
    artificial_latency_env,
    lossy_wan_env,
    multi_cluster_env,
    single_cluster_env,
    teragrid_env,
)
from repro.network.chain import DeviceChain
from repro.network.delay import DelayDevice, cross_cluster_pairs
from repro.network.devices import (
    LanDevice,
    LoopbackDevice,
    ShmemDevice,
    WanDevice,
)
from repro.network.faults import FaultyDevice
from repro.network.links import LinkModel, myrinet_like, shared_memory
from repro.network.message import Message
from repro.network.striping import StripedDevice
from repro.network.topology import GridTopology
from repro.network.transform import CompressionDevice
from repro.units import ms

SIZE = 1000


def _compression_env(trace: bool) -> GridEnvironment:
    devices = [
        LoopbackDevice(LinkModel("loopback", latency=0.5e-6, bandwidth=0.0,
                                 per_message_overhead=0.5e-6)),
        ShmemDevice(shared_memory()),
        LanDevice(myrinet_like()),
        CompressionDevice(ratio=0.25, throughput=200e6,
                          applies_to=cross_cluster_pairs),
        DelayDevice(ms(2)),
        WanDevice(myrinet_like(name="wan")),
    ]
    return GridEnvironment(GridTopology.two_cluster(4), DeviceChain(devices),
                           trace=trace)


ENVIRONMENTS = {
    "single": lambda: single_cluster_env(4, trace=True),
    "artificial": lambda: artificial_latency_env(4, ms(2), trace=True),
    "multi": lambda: multi_cluster_env((2, 2, 2), ms(1), trace=True),
    "striped": lambda: artificial_latency_env(4, ms(2), wan_streams=4,
                                              trace=True),
    "teragrid": lambda: teragrid_env(4, trace=True),
    "lossy": lambda: lossy_wan_env(4, ms(2), trace=True),
    "compression": lambda: _compression_env(trace=True),
}

PER_MESSAGE = (FaultyDevice, CompressionDevice)


def _walked_devices(env, src, dst):
    """The devices a walk from *src* to *dst* touches, in chain order."""
    probe = Message(src_pe=src, dst_pe=dst, size_bytes=SIZE)
    route = env.chain.resolve(probe, env.topology, None, record=False)
    devices = env.chain.devices
    return devices[:devices.index(route.transport) + 1]


def _deterministic(walked) -> bool:
    """No jitter, no contention state and no fault device on the walk."""
    transport = walked[-1]
    return (transport.pipe is None and transport.link.jitter is None
            and not isinstance(transport, StripedDevice)
            and not any(isinstance(d, FaultyDevice) for d in walked))


def _counters(fabric, transport):
    stats = fabric.stats
    name = transport.name
    return (stats.messages.get(name, 0), stats.dropped.get(name, 0),
            stats.duplicated.get(name, 0), transport.messages_carried)


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_table_hit_matches_a_walk(name):
    env = ENVIRONMENTS[name]()
    fabric = env.fabric
    pes = list(env.topology.pes())
    delivered = []
    copies = 0
    compressed = 0
    for src in pes:
        for dst in pes:
            walked = _walked_devices(env, src, dst)
            transport = walked[-1]
            compressor = next((d for d in walked
                               if isinstance(d, CompressionDevice)), None)
            arrivals = []
            for _ in range(2):
                before = _counters(fabric, transport)
                hops_before = len(env.tracer.hops)
                arrivals.append(fabric.send(
                    Message(src_pe=src, dst_pe=dst, size_bytes=SIZE),
                    delivered.append))
                msgs, dropped, dups, carried = (
                    a - b for a, b in
                    zip(_counters(fabric, transport), before))
                # FabricStats and the transport both count the send,
                # hit or walk: one wire copy, minus a drop, plus dups.
                assert msgs == carried == 1 - dropped + dups
                assert len(env.tracer.hops) - hops_before == msgs
                copies += msgs
                if compressor is not None:
                    compressed += SIZE - math.ceil(SIZE * compressor.ratio)
            in_table = (src, dst) in fabric._routes
            if any(isinstance(d, PER_MESSAGE) for d in walked):
                assert not in_table, (src, dst)
            else:
                assert in_table, (src, dst)
            if _deterministic(walked):
                one_way = fabric.one_way_time(src, dst, SIZE)
                assert arrivals == [one_way, one_way], (src, dst)
                first, second = env.tracer.hops[-2:]
                assert first.hops and first.hops == second.hops, (src, dst)
    for dev in env.chain.devices:
        if isinstance(dev, CompressionDevice):
            assert dev.bytes_saved == compressed > 0
    env.engine.run()
    assert len(delivered) == copies


def test_fault_and_compression_pairs_are_walked_every_time():
    """The WAN pairs of a lossy or compressing chain never hit the table."""
    for env in (lossy_wan_env(4, ms(2)), _compression_env(trace=False)):
        for _ in range(3):
            env.fabric.send(Message(src_pe=0, dst_pe=2, size_bytes=SIZE),
                            lambda m: None)
            env.fabric.send(Message(src_pe=0, dst_pe=1, size_bytes=SIZE),
                            lambda m: None)
        assert set(env.fabric._routes) == {(0, 1)}
