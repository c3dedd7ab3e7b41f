"""The artificial-latency *delay device* (paper §5.1).

The paper builds its simulated Grid environment by inserting, into the VMI
send chain, "two network drivers with a 'delay device driver' in between":
messages between nodes affiliated with the first (local) driver are
delivered immediately, while messages bound for the "remote cluster" are
intercepted by the delay device, held for a configured time, and then
passed to the wide-area driver.

:class:`DelayDevice` reproduces this exactly: it is a pass-through chain
device that adds a fixed delay to every message whose endpoints satisfy a
predicate (by default: the pair crosses a cluster boundary).  Placing it
*before* the :class:`~repro.network.devices.WanDevice` in the chain yields
the paper's artificial-latency environment.  The paper's "arbitrary
latencies ... between any pair of nodes" is a custom ``applies_to``
predicate, or one device per delay value.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.devices import ChainDevice, ProcessResult
from repro.network.message import Message
from repro.network.topology import GridTopology

PairPredicate = Callable[[int, int, GridTopology], bool]


def cross_cluster_pairs(src_pe: int, dst_pe: int, topo: GridTopology) -> bool:
    """Default predicate: the pair spans two clusters."""
    return not topo.same_cluster(src_pe, dst_pe)


class DelayDevice(ChainDevice):
    """Inject a fixed artificial latency for matching (src, dst) pairs.

    Parameters
    ----------
    delay:
        Extra one-way delay in seconds added to each matching message.
    applies_to:
        Predicate selecting which pairs are delayed; defaults to
        cross-cluster pairs, matching the paper's setup.
    name:
        Trace label.
    """

    #: Injected latency is modeled propagation, not queueing.
    hop_kind = "propagation"

    def __init__(self, delay: float,
                 applies_to: PairPredicate = cross_cluster_pairs,
                 name: str = "delay") -> None:
        if delay < 0:
            raise ConfigurationError(f"negative artificial delay {delay}")
        self.delay = delay
        self.applies_to = applies_to
        self.name = name
        #: Statistics: how many messages were delayed.
        self.messages_delayed = 0

    def process(self, msg: Message, topo: GridTopology,
                rng: Optional[np.random.Generator], *,
                record: bool = True) -> ProcessResult:
        if self.delay > 0 and self.applies_to(msg.src_pe, msg.dst_pe, topo):
            if record:
                self.messages_delayed += 1
            return ProcessResult(message=msg, added_delay=self.delay)
        return ProcessResult(message=msg)

    def reset_stats(self) -> None:
        self.messages_delayed = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DelayDevice(delay={self.delay!r})"

