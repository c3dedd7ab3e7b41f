"""Unit tests for the ack/retransmit ReliableTransport."""

import pytest

from repro.errors import ConfigurationError, NetworkError, RetransmitError
from repro.network.chain import DeviceChain
from repro.network.devices import (
    ChainDevice,
    LanDevice,
    LoopbackDevice,
    ProcessResult,
    ShmemDevice,
    WanDevice,
)
from repro.network.fabric import NetworkFabric
from repro.network.links import myrinet_like, shared_memory
from repro.network.message import Message
from repro.network.reliable import ReliableTransport, RetransmitPolicy
from repro.network.topology import GridTopology
from repro.sim.engine import Engine


class ScriptedLossDevice(ChainDevice):
    """Deterministically drop/duplicate chosen wire copies.

    ``drop_first`` drops that many matching messages; ``dup_first``
    duplicates that many of the survivors.  ``match`` selects which
    traffic is subject (default: cross-cluster data, leaving acks alone).
    """

    name = "scripted-loss"

    def __init__(self, drop_first=0, dup_first=0, match=None):
        self.drop_left = drop_first
        self.dup_left = dup_first
        self.match = match or (
            lambda m, topo: not topo.same_cluster(m.src_pe, m.dst_pe)
            and not m.tag.startswith("ack:"))

    def process(self, msg, topo, rng, *, record=True):
        if not record or not self.match(msg, topo):
            return ProcessResult(message=msg)
        if self.drop_left > 0:
            self.drop_left -= 1
            return ProcessResult(message=msg, dropped=True)
        if self.dup_left > 0:
            self.dup_left -= 1
            return ProcessResult(message=msg, duplicates=1)
        return ProcessResult(message=msg)


def make_transport(device=None, policy=None):
    devices = [LoopbackDevice(shared_memory(name="loopback")),
               ShmemDevice(shared_memory()),
               LanDevice(myrinet_like())]
    if device is not None:
        devices.append(device)
    devices.append(WanDevice(myrinet_like(name="wan")))
    topo = GridTopology.two_cluster(4)
    engine = Engine()
    fabric = NetworkFabric(engine, topo, DeviceChain(devices))
    return engine, ReliableTransport(fabric, policy)


def wan_msg(tag="data"):
    return Message(src_pe=0, dst_pe=2, size_bytes=1000, tag=tag)


# -- policy validation --------------------------------------------------------

@pytest.mark.parametrize("kwargs", [dict(ack_bytes=-1),
                                    dict(rto_min=0.0),
                                    dict(rto_min=2.0, rto_max=1.0),
                                    dict(backoff=0.5),
                                    dict(initial_rto_factor=0.0),
                                    dict(max_retries=-1)])
def test_policy_validation(kwargs):
    with pytest.raises(ConfigurationError):
        RetransmitPolicy(**kwargs)


# -- bypass and the clean path -------------------------------------------------

def test_local_traffic_bypasses_protocol():
    engine, rel = make_transport()
    got = []
    rel.send(Message(src_pe=0, dst_pe=1, size_bytes=10), got.append)
    engine.run()
    assert len(got) == 1
    assert rel.rstats.transfers == 0
    assert rel.rstats.acks_sent == 0


def test_clean_wan_transfer_acks_and_samples_rtt():
    engine, rel = make_transport()
    got = []
    rel.send(wan_msg(), got.append)
    engine.run()
    assert len(got) == 1
    r = rel.rstats
    assert (r.transfers, r.acked, r.retransmits) == (1, 1, 0)
    assert r.acks_sent == 1
    assert r.rtt_samples == 1
    assert rel.in_flight == 0


def test_no_timer_garbage_after_clean_transfer():
    """The cancelled retransmit timer must not count as pending work
    (quiescence detection requires engine.pending == 0)."""
    engine, rel = make_transport()
    rel.send(wan_msg(), lambda m: None)
    engine.run()
    assert engine.pending == 0


# -- loss recovery -------------------------------------------------------------

def test_lost_data_is_retransmitted_and_delivered_once():
    engine, rel = make_transport(ScriptedLossDevice(drop_first=2))
    got = []
    rel.send(wan_msg(), got.append)
    engine.run()
    assert len(got) == 1
    assert rel.rstats.retransmits == 2
    assert rel.rstats.acked == 1
    assert rel.in_flight == 0


def test_lost_ack_triggers_retransmit_but_single_delivery():
    drops_acks = ScriptedLossDevice(
        drop_first=1,
        match=lambda m, topo: m.tag.startswith("ack:"))
    engine, rel = make_transport(drops_acks)
    got = []
    rel.send(wan_msg(), got.append)
    engine.run()
    assert len(got) == 1                      # dedup swallowed the resend
    assert rel.rstats.retransmits == 1
    assert rel.rstats.dups_suppressed == 1
    assert rel.rstats.acks_sent == 2          # receiver re-acked the dup


def test_wire_duplicate_suppressed():
    engine, rel = make_transport(ScriptedLossDevice(dup_first=1))
    got = []
    rel.send(wan_msg(), got.append)
    engine.run()
    assert len(got) == 1
    assert rel.rstats.dups_suppressed == 1
    assert rel.rstats.retransmits == 0


def test_karns_rule_skips_retransmitted_samples():
    engine, rel = make_transport(ScriptedLossDevice(drop_first=1))
    rel.send(wan_msg(), lambda m: None)
    engine.run()
    assert rel.rstats.acked == 1
    assert rel.rstats.rtt_samples == 0        # ambiguous RTT, no sample


def test_rto_adapts_from_samples():
    engine, rel = make_transport()
    first = rel._first_rto(wan_msg())
    rel.send(wan_msg(), lambda m: None)
    engine.run()
    assert rel.rstats.rtt_samples == 1
    adapted = rel._first_rto(wan_msg())
    assert adapted != first                   # now driven by SRTT/RTTVAR
    assert adapted >= rel.policy.rto_min


# -- giving up ----------------------------------------------------------------

def test_black_hole_raises_network_error():
    dead = ScriptedLossDevice(drop_first=10**9)
    policy = RetransmitPolicy(max_retries=3)
    engine, rel = make_transport(dead, policy)
    rel.send(wan_msg(), lambda m: None)
    with pytest.raises(RetransmitError) as exc_info:
        engine.run()
    assert isinstance(exc_info.value, NetworkError)
    assert "undelivered" in str(exc_info.value)
    assert rel.rstats.failures == 1
    assert rel.rstats.retransmits == 3
    assert rel.in_flight == 0


def test_backoff_grows_and_caps():
    policy = RetransmitPolicy(max_retries=6, rto_max=1.0)
    dead = ScriptedLossDevice(drop_first=10**9)
    engine, rel = make_transport(dead, policy)
    msg = wan_msg()
    rel.send(msg, lambda m: None)
    rtos = []
    try:
        while True:
            pend = rel._pending.get(msg.seq)
            if pend is None:
                break
            rtos.append(pend.rto)
            engine.run(until=pend.timer.time)
    except RetransmitError:
        pass
    deltas = [b / a for a, b in zip(rtos, rtos[1:])]
    assert any(d == pytest.approx(policy.backoff) for d in deltas)
    assert all(r <= policy.rto_max + 1e-12 for r in rtos)


# -- misc ----------------------------------------------------------------------

def test_reset_stats_clears_both_layers():
    engine, rel = make_transport()
    rel.send(wan_msg(), lambda m: None)
    engine.run()
    assert rel.rstats.transfers == 1
    rel.reset_stats()
    assert rel.rstats.transfers == 0
    assert rel.stats.total_messages == 0


def test_send_returns_inf_when_first_copy_dropped():
    import math
    engine, rel = make_transport(ScriptedLossDevice(drop_first=1))
    got = []
    arrival = rel.send(wan_msg(), got.append)
    assert math.isinf(arrival)
    engine.run()
    assert len(got) == 1                      # retransmit still delivered
