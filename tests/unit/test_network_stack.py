"""Unit tests for links, devices, chains, delay injection, contention."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.network.chain import DeviceChain
from repro.network.contention import PipePair, SharedPipe
from repro.network.delay import DelayDevice
from repro.network.devices import (
    LanDevice,
    LoopbackDevice,
    ShmemDevice,
    WanDevice,
)
from repro.network.links import (
    LinkModel,
    LognormalJitter,
    NoJitter,
    myrinet_like,
    shared_memory,
    wan_tcp,
)
from repro.network.message import Message
from repro.network.topology import GridTopology
from repro.network.transform import CompressionDevice


@pytest.fixture
def topo():
    return GridTopology.two_cluster(4, pes_per_node=2)


# -- links -------------------------------------------------------------------

def test_link_transit_alpha_beta():
    link = LinkModel("l", latency=1e-3, bandwidth=1e6,
                     per_message_overhead=1e-4)
    # 1000 bytes at 1 MB/s = 1 ms transfer, + 1 ms latency + 0.1 ms ovh
    assert link.transit_time(1000) == pytest.approx(2.1e-3)


def test_link_infinite_bandwidth():
    link = LinkModel("l", latency=1e-3, bandwidth=0.0)
    assert link.transit_time(10**9) == pytest.approx(1e-3)


def test_link_serialization_time_excludes_latency():
    link = LinkModel("l", latency=5.0, bandwidth=1e6)
    assert link.serialization_time(1000) == pytest.approx(1e-3)


def test_link_negative_latency_rejected():
    with pytest.raises(ConfigurationError):
        LinkModel("l", latency=-1.0)


def test_jitter_requires_rng():
    link = LinkModel("l", latency=0.0, bandwidth=0.0,
                     jitter=LognormalJitter(median=1e-3, sigma=0.5))
    assert link.transit_time(0) == 0.0  # no rng -> deterministic
    rng = np.random.default_rng(0)
    samples = [link.transit_time(0, rng) for _ in range(200)]
    assert all(s >= 0.0 for s in samples)
    assert any(s > 0.0 for s in samples)


def test_no_jitter_model():
    assert NoJitter().sample(np.random.default_rng(0)) == 0.0


def test_bad_jitter_params():
    with pytest.raises(ConfigurationError):
        LognormalJitter(median=-1.0)


def test_link_presets():
    assert myrinet_like().latency < wan_tcp(1e-3).latency
    assert shared_memory().latency < myrinet_like().latency


# -- transport devices --------------------------------------------------------

def test_device_reachability(topo):
    shmem = ShmemDevice(shared_memory())
    lan = LanDevice(myrinet_like())
    wan = WanDevice(wan_tcp(1e-3))
    loop = LoopbackDevice(shared_memory())
    assert loop.reaches(0, 0, topo)
    assert not loop.reaches(0, 1, topo)
    assert shmem.reaches(0, 1, topo)          # same node
    assert not shmem.reaches(1, 2, topo)      # off-node? 4 PEs: (0,1)(2,3)
    assert lan.reaches(0, 1, topo)
    assert not lan.reaches(1, 2, topo)        # cross-cluster
    assert wan.reaches(1, 2, topo)
    assert not wan.reaches(0, 1, topo)


def test_device_stats(topo):
    lan = LanDevice(myrinet_like())
    msg = Message(src_pe=0, dst_pe=1, size_bytes=100)
    lan.transit(msg, topo, 0.0, None)
    assert lan.messages_carried == 1
    assert lan.bytes_carried == 100
    lan.reset_stats()
    assert lan.messages_carried == 0


# -- chain dispatch ---------------------------------------------------------------

def make_chain(latency=0.0):
    devices = [LoopbackDevice(shared_memory(name="loopback")),
               ShmemDevice(shared_memory()),
               LanDevice(myrinet_like())]
    if latency >= 0:
        devices.append(DelayDevice(latency))
        devices.append(WanDevice(myrinet_like(name="wan")))
    return DeviceChain(devices)


def test_chain_first_claim_wins(topo):
    chain = make_chain()
    msg = Message(src_pe=0, dst_pe=1, size_bytes=10)
    route = chain.resolve(msg, topo)
    assert route.transport.name == "shmem"  # claims before lan


def test_chain_routes_wan(topo):
    chain = make_chain(latency=5e-3)
    msg = Message(src_pe=0, dst_pe=2, size_bytes=10)
    route = chain.resolve(msg, topo)
    assert route.transport.name == "wan"
    assert route.pre_transport_delay == pytest.approx(5e-3)


def test_delay_device_ignores_local_pairs(topo):
    chain = make_chain(latency=5e-3)
    msg = Message(src_pe=0, dst_pe=1, size_bytes=10)
    route = chain.resolve(msg, topo)
    assert route.pre_transport_delay == 0.0


def test_delay_device_counts(topo):
    """Only the cross-cluster pair is delayed; the device keeps no count."""
    dev = DelayDevice(1e-3)
    wan = dev.process(Message(src_pe=0, dst_pe=2, size_bytes=1), topo, None)
    local = dev.process(Message(src_pe=0, dst_pe=1, size_bytes=1), topo,
                        None)
    assert wan.added_delay == 1e-3
    assert local.added_delay == 0.0
    assert not hasattr(dev, "messages_delayed")


def test_zero_delay_device_does_not_count(topo):
    dev = DelayDevice(0.0)
    result = dev.process(Message(src_pe=0, dst_pe=2, size_bytes=1),
                         topo, None)
    assert result.added_delay == 0.0


def test_negative_delay_rejected():
    with pytest.raises(ConfigurationError):
        DelayDevice(-1.0)


def test_no_route_raises():
    chain = DeviceChain([ShmemDevice(shared_memory())])
    topo = GridTopology.two_cluster(4)
    msg = Message(src_pe=0, dst_pe=3, size_bytes=1)
    with pytest.raises(RoutingError):
        chain.resolve(msg, topo)


def test_empty_chain_rejected():
    with pytest.raises(RoutingError):
        DeviceChain([])


def test_chain_transports_listing():
    chain = make_chain(latency=1e-3)
    names = [d.name for d in chain.transports()]
    assert names == ["loopback", "shmem", "lan", "wan"]


# -- transform devices --------------------------------------------------------------

def test_compression_shrinks_and_charges(topo):
    dev = CompressionDevice(ratio=0.5, throughput=1e6)
    msg = Message(src_pe=0, dst_pe=2, size_bytes=1000)
    res = dev.process(msg, topo, None)
    assert res.message.size_bytes == 500
    assert res.added_delay == pytest.approx(1e-3)
    assert dev.bytes_saved == 500
    assert res.message.payload is msg.payload  # logical content untouched


def test_compression_predicate(topo):
    from repro.network.delay import cross_cluster_pairs
    dev = CompressionDevice(ratio=0.5, applies_to=cross_cluster_pairs)
    local = dev.process(Message(src_pe=0, dst_pe=1, size_bytes=1000),
                        topo, None)
    assert local.message.size_bytes == 1000


def test_compression_bad_ratio():
    with pytest.raises(ConfigurationError):
        CompressionDevice(ratio=0.0)
    with pytest.raises(ConfigurationError):
        CompressionDevice(ratio=1.5)


# -- contention ----------------------------------------------------------------------

def test_shared_pipe_serializes():
    pipe = SharedPipe()
    assert pipe.reserve(0.0, 1.0) == 0.0
    assert pipe.reserve(0.0, 1.0) == 1.0   # queued behind the first
    assert pipe.reserve(5.0, 1.0) == 5.0   # idle gap: starts immediately
    assert pipe.queue_delay_total == pytest.approx(1.0)
    assert pipe.reservations == 3


def test_shared_pipe_negative_duration():
    with pytest.raises(ValueError):
        SharedPipe().reserve(0.0, -1.0)


def test_shared_pipe_reset():
    pipe = SharedPipe()
    pipe.reserve(0.0, 1.0)
    pipe.reset()
    assert pipe.next_free == 0.0
    assert pipe.reservations == 0


def test_pipe_pair_directions_independent():
    pair = PipePair()
    fwd = pair.direction(0, 1)
    rev = pair.direction(1, 0)
    assert fwd is not rev
    fwd.reserve(0.0, 1.0)
    assert rev.reserve(0.0, 1.0) == 0.0  # reverse direction unaffected
    assert pair.total_queue_delay() == 0.0


def test_wan_device_with_pipe_queues(topo):
    link = LinkModel("wan", latency=1e-3, bandwidth=1e6)
    wan = WanDevice(link, pipe=PipePair())
    m1 = Message(src_pe=0, dst_pe=2, size_bytes=1000)  # 1 ms serialization
    m2 = Message(src_pe=1, dst_pe=3, size_bytes=1000)
    t1 = wan.transit(m1, topo, 0.0, None)
    t2 = wan.transit(m2, topo, 0.0, None)
    assert t1 == pytest.approx(2e-3)        # 1 ms ser + 1 ms latency
    assert t2 == pytest.approx(3e-3)        # queued 1 ms behind m1
