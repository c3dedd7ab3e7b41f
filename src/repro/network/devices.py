"""VMI-style device drivers.

The Virtual Machine Interface (paper §2.2) organizes messaging into *send
and receive chains* of dynamically loaded device drivers.  As a message
travels down the chain, each driver either **claims** it for delivery,
**transforms** it (compression, artificial delay, fault injection) and passes
it on, or simply passes it on untouched.

Every driver here implements :class:`ChainDevice`.  Transport devices
(:class:`ShmemDevice`, :class:`LanDevice`, :class:`WanDevice`) terminate
the chain when their reachability predicate matches the (src, dst) pair;
filter devices (see :mod:`repro.network.delay` and
:mod:`repro.network.transform`) never terminate it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.network.contention import PipePair
from repro.network.hops import HopSpan
from repro.network.links import LinkModel
from repro.network.message import Message
from repro.network.topology import GridTopology


class ProcessResult:
    """Outcome of one device inspecting a message.

    Allocated once per device per message on the send path, so this is a
    ``__slots__`` class with a straight-line ``__init__``.

    Attributes
    ----------
    message:
        The (possibly transformed) message to hand to the next device.
    added_delay:
        Seconds this device added *before* transport (delay/compute costs
        of filter devices).
    claimed:
        ``True`` when this device will deliver the message itself; the
        chain stops here and the fabric asks the device for transit time.
    dropped:
        ``True`` when a fault device decided the message is lost on the
        wire: the fabric never posts a delivery for it.
    duplicates:
        Number of *extra* wire copies a fault device injected; the fabric
        posts one additional delivery per copy.
    """

    __slots__ = ("message", "added_delay", "claimed", "dropped",
                 "duplicates")

    def __init__(self, message: Message, added_delay: float = 0.0,
                 claimed: bool = False, dropped: bool = False,
                 duplicates: int = 0) -> None:
        self.message = message
        self.added_delay = added_delay
        self.claimed = claimed
        self.dropped = dropped
        self.duplicates = duplicates


class ChainDevice:
    """Base class for all chain devices."""

    #: Display name; transport devices reuse their link's name by default.
    name: str = "device"
    #: Hop-ledger kind stamped for this device's added delay (filter
    #: devices only; delay devices override with ``"propagation"``).
    hop_kind: str = "device_queue"

    def process(self, msg: Message, topo: GridTopology,
                rng: Optional[np.random.Generator], *,
                record: bool = True) -> ProcessResult:
        """Inspect *msg*; claim, transform or pass it through.

        ``record=False`` marks a model-only probe (see
        :meth:`~repro.network.fabric.NetworkFabric.one_way_time`): the
        device must not update statistics, draw randomness, or inject
        faults — only report the deterministic part of its behaviour.
        """
        raise NotImplementedError

    def transit(self, msg: Message, topo: GridTopology, now: float,
                rng: Optional[np.random.Generator],
                ledger: Optional[List[HopSpan]] = None) -> float:
        """For claiming devices: seconds from transport start to delivery.

        *now* is the virtual time transport starts (after any filter
        delays); contended transports use it to queue on their pipe.
        When a *ledger* is supplied the device appends one
        :class:`~repro.network.hops.HopSpan` per wire lane it used.
        """
        raise NotImplementedError(f"{self.name} is not a transport device")


class TransportDevice(ChainDevice):
    """A terminal device that moves bytes over one link class.

    Parameters
    ----------
    link:
        Performance model for the link.
    pipe:
        Optional contention model; when present, the message's
        serialization time is serialized FIFO per direction.
    """

    def __init__(self, link: LinkModel, pipe: Optional[PipePair] = None) -> None:
        self.link = link
        self.pipe = pipe
        self.name = link.name
        #: Statistics: messages and bytes carried.
        self.messages_carried = 0
        self.bytes_carried = 0

    # subclasses override ------------------------------------------------
    def reaches(self, src_pe: int, dst_pe: int, topo: GridTopology) -> bool:
        """Can this device deliver between the two PEs?"""
        raise NotImplementedError

    # common behaviour ------------------------------------------------------
    def process(self, msg: Message, topo: GridTopology,
                rng: Optional[np.random.Generator], *,
                record: bool = True) -> ProcessResult:
        if self.reaches(msg.src_pe, msg.dst_pe, topo):
            return ProcessResult(message=msg, claimed=True)
        return ProcessResult(message=msg)

    def transit(self, msg: Message, topo: GridTopology, now: float,
                rng: Optional[np.random.Generator],
                ledger: Optional[List[HopSpan]] = None) -> float:
        self.messages_carried += 1
        self.bytes_carried += msg.size_bytes
        base = self.link.transit_time(msg.size_bytes, rng)
        if self.pipe is None:
            if ledger is not None:
                ledger.append(HopSpan(
                    device=self.name, link=self.name, kind="wire",
                    enqueue=now, dequeue=now, arrive=now + base,
                    ser_s=self.link.serialization_time(msg.size_bytes)))
            return base
        # Contended path: serialization queues FIFO, propagation pipelines.
        ser = self.link.serialization_time(msg.size_bytes)
        pipe = self.pipe.direction(topo.cluster_of(msg.src_pe),
                                   topo.cluster_of(msg.dst_pe))
        start = pipe.reserve(now, ser)
        queue_wait = start - now
        if ledger is not None:
            ledger.append(HopSpan(
                device=pipe.name, link=self.name, kind="wire",
                enqueue=now, dequeue=start, arrive=now + (queue_wait + base),
                ser_s=ser, queue_depth=pipe.last_queue_depth))
        return queue_wait + base

    def reset_stats(self) -> None:
        self.messages_carried = 0
        self.bytes_carried = 0
        if self.pipe is not None:
            self.pipe.reset()


class ShmemDevice(TransportDevice):
    """Delivers between PEs on the same physical node."""

    def reaches(self, src_pe: int, dst_pe: int, topo: GridTopology) -> bool:
        return topo.same_node(src_pe, dst_pe)


class LanDevice(TransportDevice):
    """Delivers between PEs within one cluster (Myrinet/InfiniBand class)."""

    def reaches(self, src_pe: int, dst_pe: int, topo: GridTopology) -> bool:
        return topo.same_cluster(src_pe, dst_pe)


class WanDevice(TransportDevice):
    """Delivers between clusters over the wide area (TCP class)."""

    def reaches(self, src_pe: int, dst_pe: int, topo: GridTopology) -> bool:
        return not topo.same_cluster(src_pe, dst_pe)


class LoopbackDevice(TransportDevice):
    """Delivers a PE's messages to itself at (near) zero cost.

    The runtime still routes self-sends through the fabric so that event
    ordering and tracing stay uniform.
    """

    def reaches(self, src_pe: int, dst_pe: int, topo: GridTopology) -> bool:
        return src_pe == dst_pe
