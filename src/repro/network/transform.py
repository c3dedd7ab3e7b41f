"""A message-transforming chain device.

Paper §2.2: "because modules can intercept and manipulate message data as
it is passed from module to module, capabilities such as encrypting or
compressing the data are possible."  :class:`CompressionDevice` realizes
that VMI capability for the Cactus-G-style "compress WAN traffic"
ablation.

It is a pure envelope transform: it changes the declared wire size and
charges a CPU cost, leaving the logical payload untouched.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.devices import ChainDevice, ProcessResult
from repro.network.message import Message
from repro.network.topology import GridTopology

PairPredicate = Callable[[int, int, GridTopology], bool]


def _always(src_pe: int, dst_pe: int, topo: GridTopology) -> bool:
    return True


class CompressionDevice(ChainDevice):
    """Shrink matching messages' wire size at a CPU cost.

    Parameters
    ----------
    ratio:
        Compressed size = ``ceil(size * ratio)``; must be in (0, 1].
    throughput:
        Compression speed in bytes/second (CPU cost charged as delay);
        0 means free.
    applies_to:
        Which (src, dst) pairs to compress for; defaults to all.  The
        Cactus-G ablation passes a cross-cluster predicate so only WAN
        traffic pays the CPU cost.
    """

    def __init__(self, ratio: float, throughput: float = 0.0,
                 applies_to: PairPredicate = _always,
                 name: str = "compress") -> None:
        if not (0.0 < ratio <= 1.0):
            raise ConfigurationError(f"compression ratio {ratio} not in (0, 1]")
        if throughput < 0:
            raise ConfigurationError(f"negative throughput {throughput}")
        self.ratio = ratio
        self.throughput = throughput
        self.applies_to = applies_to
        self.name = name
        self.bytes_saved = 0

    def process(self, msg: Message, topo: GridTopology,
                rng: Optional[np.random.Generator], *,
                record: bool = True) -> ProcessResult:
        if not self.applies_to(msg.src_pe, msg.dst_pe, topo):
            return ProcessResult(message=msg)
        new_size = int(np.ceil(msg.size_bytes * self.ratio))
        cost = (msg.size_bytes / self.throughput) if self.throughput > 0 else 0.0
        if record:
            self.bytes_saved += msg.size_bytes - new_size
        return ProcessResult(message=msg.with_size(new_size), added_delay=cost)

    def reset_stats(self) -> None:
        self.bytes_saved = 0

