"""Per-hop message ledger records (the network flight recorder).

Every device a message traverses — delay/fault filters, the WAN/LAN
transports, striped stream pipes — stamps one :class:`HopSpan` onto the
message's hop ledger (a plain list the fabric threads through
:meth:`~repro.network.chain.DeviceChain.resolve` and
``TransportDevice.transit``).  The finished ledger flows to the trace
sinks via ``message_hops`` and powers per-link utilization timelines,
the wire-level critical-path decomposition, and the ``repro inspect
--view netview`` report.

A span's three timestamps partition its hop:

* ``enqueue``   — the message reached the device;
* ``dequeue``   — the device started serving it (pipe/stream grant);
* ``arrive``    — the hop completed.

``[enqueue, dequeue]`` is queueing (``device_queue`` for plain pipes,
``stripe_pacing`` for striped streams), ``[dequeue, dequeue + ser_s]``
is bandwidth serialization, and the remainder to ``arrive`` is
propagation.  Filter devices (delay, faults) emit single-interval spans
whose ``kind`` names the whole hop.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Tuple

_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Span kinds a device may stamp.  ``wire`` and ``stream`` spans are
#: decomposed into queue/serialization/propagation sub-intervals by the
#: critical-path analyzer; other kinds attribute their whole interval.
HOP_KINDS = ("wire", "stream", "propagation", "device_queue")


@dataclass(frozen=True, **_SLOTS)
class HopSpan:
    """One device's contribution to a message's journey.

    ``device`` is the lane label (a stream pipe name for striped
    chunks); ``link`` is the owning device's name, so per-link rollups
    can aggregate stream lanes.
    """

    device: str
    link: str
    kind: str
    enqueue: float
    dequeue: float
    arrive: float
    #: Seconds the lane was *occupied* by this hop (the bandwidth term).
    ser_s: float = 0.0
    #: Lane occupancy observed at enqueue time (messages ahead).
    queue_depth: int = 0
    #: Stream index for striped chunks, ``None`` otherwise.
    stream: Optional[int] = None

    @property
    def queue_s(self) -> float:
        return self.dequeue - self.enqueue

    @property
    def total_s(self) -> float:
        return self.arrive - self.enqueue

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "link": self.link,
            "kind": self.kind,
            "enqueue": self.enqueue,
            "dequeue": self.dequeue,
            "arrive": self.arrive,
            "ser_s": self.ser_s,
            "queue_depth": self.queue_depth,
            **({"stream": self.stream} if self.stream is not None else {}),
        }


#: A finished ledger, as handed to ``message_hops``: spans in traversal
#: order (filters first, then the transport's wire/stream spans).
HopLedger = Tuple[HopSpan, ...]
