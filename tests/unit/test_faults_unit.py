"""Unit tests for WAN fault injection (FaultyDevice, LinkFlap)."""

import pytest

from repro.errors import ConfigurationError
from repro.grid.presets import artificial_latency_env
from repro.network.chain import DeviceChain
from repro.network.devices import LanDevice, LoopbackDevice, ShmemDevice, WanDevice
from repro.network.faults import FaultyDevice, LinkFlap
from repro.network.links import myrinet_like, shared_memory
from repro.network.message import Message
from repro.network.topology import GridTopology


@pytest.fixture
def topo():
    return GridTopology.two_cluster(4, pes_per_node=2)


def wan_msg(size=100):
    return Message(src_pe=0, dst_pe=2, size_bytes=size)


def lan_msg(size=100):
    return Message(src_pe=0, dst_pe=1, size_bytes=size)


# -- LinkFlap ----------------------------------------------------------------

def test_flap_down_at_windows():
    flap = LinkFlap([(2.0, 3.0), (0.0, 1.0)])   # unsorted on purpose
    assert flap.down_at(0.0)
    assert flap.down_at(0.5)
    assert not flap.down_at(1.0)    # end is exclusive
    assert not flap.down_at(1.5)
    assert flap.down_at(2.5)
    assert not flap.down_at(99.0)


def test_flap_periodic():
    flap = LinkFlap.periodic(10.0, 1.0, start=5.0, count=3)
    assert flap.windows == [(5.0, 6.0), (15.0, 16.0), (25.0, 26.0)]
    assert flap.down_at(15.5)
    assert not flap.down_at(26.5)


@pytest.mark.parametrize("windows", [[(1.0, 1.0)], [(2.0, 1.0)],
                                     [(-1.0, 1.0)]])
def test_flap_rejects_malformed_windows(windows):
    with pytest.raises(ConfigurationError):
        LinkFlap(windows)


def test_flap_periodic_rejects_bad_params():
    with pytest.raises(ConfigurationError):
        LinkFlap.periodic(1.0, 1.0)     # downtime must be < period
    with pytest.raises(ConfigurationError):
        LinkFlap.periodic(0.0, 0.5)


# -- FaultyDevice validation --------------------------------------------------

@pytest.mark.parametrize("kwargs", [dict(drop=-0.1), dict(drop=1.1),
                                    dict(dup=2.0), dict(reorder=-1.0)])
def test_faulty_rejects_bad_rates(kwargs):
    with pytest.raises(ConfigurationError):
        FaultyDevice(**kwargs)


def test_faulty_reorder_requires_delay():
    with pytest.raises(ConfigurationError):
        FaultyDevice(reorder=0.5)
    FaultyDevice(reorder=0.5, reorder_delay=1e-3)   # fine


# -- fault behaviour ----------------------------------------------------------

def test_certain_drop_counts_and_flags(topo):
    dev = FaultyDevice(drop=1.0, seed=1)
    res = dev.process(wan_msg(), topo, None)
    assert res.dropped
    assert dev.messages_dropped == 1


def test_certain_dup_and_reorder(topo):
    dev = FaultyDevice(dup=1.0, reorder=1.0, reorder_delay=1e-3, seed=1)
    res = dev.process(wan_msg(), topo, None)
    assert not res.dropped
    assert res.duplicates == 1
    assert res.added_delay > 0.0
    assert dev.messages_duplicated == 1
    assert dev.messages_reordered == 1


def test_local_traffic_untouched_and_consumes_no_draws(topo):
    dev = FaultyDevice(drop=1.0, dup=1.0, reorder=1.0, reorder_delay=1e-3,
                       seed=3)
    twin = FaultyDevice(drop=1.0, dup=1.0, reorder=1.0, reorder_delay=1e-3,
                        seed=3)
    res = dev.process(lan_msg(), topo, None)
    assert not res.dropped and res.duplicates == 0 and res.added_delay == 0.0
    assert dev.messages_dropped == 0
    # The local message consumed no RNG draws: the next WAN message gets
    # the same fate on both devices.
    assert (dev.process(wan_msg(), topo, None).added_delay
            == twin.process(wan_msg(), topo, None).added_delay)


def test_probe_passthrough_consumes_no_draws(topo):
    dev = FaultyDevice(drop=0.5, dup=0.5, reorder=0.5, reorder_delay=1e-3,
                       seed=5)
    twin = FaultyDevice(drop=0.5, dup=0.5, reorder=0.5, reorder_delay=1e-3,
                        seed=5)
    for _ in range(4):
        res = dev.process(wan_msg(), topo, None, record=False)
        assert not res.dropped and res.duplicates == 0
        assert res.added_delay == 0.0
    assert dev.messages_dropped == dev.messages_duplicated == 0
    # Probes advanced nothing: both streams still aligned.
    for _ in range(8):
        a = dev.process(wan_msg(), topo, None)
        b = twin.process(wan_msg(), topo, None)
        assert (a.dropped, a.duplicates, a.added_delay) == \
               (b.dropped, b.duplicates, b.added_delay)


def test_flap_drop_keys_on_sent_at(topo):
    dev = FaultyDevice(flap=LinkFlap([(1.0, 2.0)]), seed=0)
    inside = wan_msg()
    inside.sent_at = 1.5
    outside = wan_msg()
    outside.sent_at = 2.5
    assert dev.process(inside, topo, None).dropped
    assert not dev.process(outside, topo, None).dropped
    assert dev.messages_flap_dropped == 1
    assert dev.messages_dropped == 0    # counted apart from random drops


def test_same_seed_faults_identically(topo):
    def fates(seed):
        dev = FaultyDevice(drop=0.3, dup=0.2, reorder=0.3,
                           reorder_delay=1e-3, seed=seed)
        out = []
        for _ in range(40):
            r = dev.process(wan_msg(), topo, None)
            out.append((r.dropped, r.duplicates, r.added_delay))
        return out

    assert fates(11) == fates(11)
    assert fates(11) != fates(12)


def test_reset_stats(topo):
    dev = FaultyDevice(drop=1.0)
    dev.process(wan_msg(), topo, None)
    dev.reset_stats()
    assert dev.messages_dropped == 0


# -- chain-level aggregation --------------------------------------------------

def faulty_chain(**kwargs):
    return DeviceChain([
        LoopbackDevice(shared_memory(name="loopback")),
        ShmemDevice(shared_memory()),
        LanDevice(myrinet_like()),
        FaultyDevice(**kwargs),
        WanDevice(myrinet_like(name="wan")),
    ])


def test_route_carries_drop_flag(topo):
    chain = faulty_chain(drop=1.0, seed=0)
    route = chain.resolve(wan_msg(), topo, None)
    assert route.dropped


def test_route_carries_duplicates(topo):
    chain = faulty_chain(dup=1.0, seed=0)
    route = chain.resolve(wan_msg(), topo, None)
    assert not route.dropped
    assert route.duplicates == 1


def test_resolve_record_false_skips_faults_and_stats(topo):
    chain = faulty_chain(drop=1.0, seed=0)
    route = chain.resolve(wan_msg(), topo, None, record=False)
    assert not route.dropped
    faulty = chain.devices[3]
    assert faulty.messages_dropped == 0


# -- the probe-path regression (satellite bugfix) -----------------------------

def test_one_way_time_leaves_all_stats_untouched():
    """Model-only probes must not pollute any device's counters."""
    env = artificial_latency_env(4, 2e-3)
    devices = env.chain.devices
    for src, dst in [(0, 0), (0, 1), (0, 2), (2, 3)]:
        env.fabric.one_way_time(src, dst, 4096)
    for dev in devices:
        for attr in ("messages_carried", "bytes_carried"):
            assert getattr(dev, attr, 0) == 0, (dev.name, attr)
    assert env.fabric.stats.total_messages == 0


def test_one_way_time_probe_matches_recorded_send():
    """The stats-free path must still compute the same transit time."""
    env = artificial_latency_env(4, 2e-3)
    probe = env.fabric.one_way_time(0, 2, 1000)
    arrivals = []
    msg = Message(src_pe=0, dst_pe=2, size_bytes=1000)
    env.fabric.send(msg, lambda m: arrivals.append(env.engine.now))
    env.engine.run()
    assert arrivals and arrivals[0] == pytest.approx(probe)
