"""VMI-style messaging substrate.

Models the paper's communication stack: a grid/cluster/node/PE topology
(:mod:`~repro.network.topology`), alpha-beta link models
(:mod:`~repro.network.links`), VMI device-driver send chains with
transport, delay and compression devices
(:mod:`~repro.network.devices`, :mod:`~repro.network.delay`,
:mod:`~repro.network.transform`, :mod:`~repro.network.chain`), WAN
contention (:mod:`~repro.network.contention`), WAN fault injection
(:mod:`~repro.network.faults`), the reliable ack/retransmit transport
(:mod:`~repro.network.reliable`), and the
:class:`~repro.network.fabric.NetworkFabric` that executes message
transits on the simulation engine.
"""

from repro.network.chain import DeviceChain, Route
from repro.network.contention import PipePair, SharedPipe
from repro.network.delay import DelayDevice, cross_cluster_pairs
from repro.network.faults import FaultyDevice, LinkFlap
from repro.network.devices import (
    ChainDevice,
    LanDevice,
    LoopbackDevice,
    ProcessResult,
    ShmemDevice,
    TransportDevice,
    WanDevice,
)
from repro.network.fabric import FabricStats, NetworkFabric
from repro.network.links import (
    LinkModel,
    LognormalJitter,
    NoJitter,
    myrinet_like,
    shared_memory,
    wan_tcp,
)
from repro.network.message import DEFAULT_PRIORITY, WAN_EXPEDITED, Message
from repro.network.reliable import (
    ReliableStats,
    ReliableTransport,
    RetransmitPolicy,
)
from repro.network.topology import Cluster, GridTopology, Node, Processor
from repro.network.transform import CompressionDevice

__all__ = [
    "Message",
    "DEFAULT_PRIORITY",
    "WAN_EXPEDITED",
    "GridTopology",
    "Cluster",
    "Node",
    "Processor",
    "LinkModel",
    "NoJitter",
    "LognormalJitter",
    "myrinet_like",
    "shared_memory",
    "wan_tcp",
    "ChainDevice",
    "TransportDevice",
    "ShmemDevice",
    "LanDevice",
    "WanDevice",
    "LoopbackDevice",
    "ProcessResult",
    "DelayDevice",
    "cross_cluster_pairs",
    "FaultyDevice",
    "LinkFlap",
    "ReliableTransport",
    "RetransmitPolicy",
    "ReliableStats",
    "CompressionDevice",
    "DeviceChain",
    "Route",
    "SharedPipe",
    "PipePair",
    "NetworkFabric",
    "FabricStats",
]
