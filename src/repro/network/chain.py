"""Send-chain assembly and dispatch.

A :class:`DeviceChain` is an ordered list of chain devices.  Resolving a
message walks the chain in order, accumulating filter-device delays and
transformations, until a transport device claims the message — the VMI
dispatch rule from paper §2.2 ("each driver on the chain examines the
message to determine whether that driver should deliver the message or
whether it should simply send the message to the next device").

Chains are built once per environment and never change afterwards; see
:mod:`repro.grid.presets` for the configurations used in the paper's
experiments.  When every device a walk touches is *pair-static* (see
:attr:`~repro.network.devices.ChainDevice.pair_static`), the
:class:`Route` it returns holds for every message between that PE pair,
and :class:`~repro.network.fabric.NetworkFabric` keeps it in its route
table instead of walking again.  :func:`filter_spans` turns a route's
delay-adding filters into hop-ledger spans for one send, so a walked
route and a table hit stamp the same spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.network.devices import ChainDevice, TransportDevice
from repro.network.hops import HopSpan
from repro.network.message import Message
from repro.network.topology import GridTopology


@dataclass
class Route:
    """The outcome of resolving one message against a chain."""

    #: Message as transformed by filter devices (wire size may differ).
    message: Message
    #: The transport device that claimed the message.
    transport: TransportDevice
    #: Total delay added by filter devices before transport starts.
    pre_transport_delay: float
    #: ``(device, added_delay)`` of every device that added delay, in
    #: chain order (the input of :func:`filter_spans`).
    filters: Tuple[Tuple[ChainDevice, float], ...] = ()
    #: Every device the walk touched is pair-static: this route holds
    #: for every message between the same (src, dst) PE pair.
    pair_static: bool = False
    #: A fault device decided the message is lost: no delivery happens.
    dropped: bool = False
    #: Extra wire copies injected by fault devices (0 = just the original).
    duplicates: int = 0


def filter_spans(filters: Sequence[Tuple[ChainDevice, float]],
                 now: float) -> List[HopSpan]:
    """One :class:`~repro.network.hops.HopSpan` per delay-adding filter.

    *filters* is a route's :attr:`Route.filters` and *now* the send
    instant.  The spans telescope: each starts where the previous one
    ended (``now + before``, with ``before`` summed from 0.0) and ends at
    ``now + (before + added)``, so the last one ends at
    ``now + pre_transport_delay`` exactly.
    """
    spans = []
    before = 0.0
    for dev, added in filters:
        start = now + before
        spans.append(HopSpan(device=dev.name, link=dev.name,
                             kind=dev.hop_kind, enqueue=start,
                             dequeue=start, arrive=now + (before + added)))
        before += added
    return spans


class DeviceChain:
    """An ordered VMI send chain.

    Parameters
    ----------
    devices:
        Chain devices in dispatch order.  At least one must be a
        transport device or resolution will fail for every pair.
    """

    def __init__(self, devices: Sequence[ChainDevice]) -> None:
        self._devices: List[ChainDevice] = list(devices)
        if not self._devices:
            raise RoutingError("empty device chain")

    @property
    def devices(self) -> List[ChainDevice]:
        return list(self._devices)

    def resolve(self, msg: Message, topo: GridTopology,
                rng: Optional[np.random.Generator] = None, *,
                record: bool = True) -> Route:
        """Walk the chain until a transport claims *msg*.

        ``record=False`` resolves a model-only probe: no device statistics
        are updated and fault devices behave as pure pass-throughs (see
        :meth:`~repro.network.fabric.NetworkFabric.one_way_time`).

        Raises
        ------
        RoutingError
            If no device claims the message (misconfigured chain).
        """
        delay = 0.0
        current = msg
        dropped = False
        duplicates = 0
        pair_static = True
        filters = []
        for dev in self._devices:
            result = dev.process(current, topo, rng, record=record)
            pair_static = pair_static and dev.pair_static
            if result.added_delay:
                filters.append((dev, result.added_delay))
            delay += result.added_delay
            current = result.message
            dropped = dropped or result.dropped
            duplicates += result.duplicates
            if result.claimed:
                if not isinstance(dev, TransportDevice):
                    raise RoutingError(
                        f"device {dev.name!r} claimed a message but is not "
                        "a transport device")
                return Route(message=current, transport=dev,
                             pre_transport_delay=delay,
                             filters=tuple(filters),
                             pair_static=pair_static,
                             dropped=dropped, duplicates=duplicates)
        raise RoutingError(
            f"no device in chain claims PE {msg.src_pe} -> PE {msg.dst_pe} "
            f"(devices: {[d.name for d in self._devices]})")

    def transports(self) -> List[TransportDevice]:
        """All transport devices in the chain, in order."""
        return [d for d in self._devices if isinstance(d, TransportDevice)]

    def reset_stats(self) -> None:
        """Clear statistics on every device that keeps them."""
        for dev in self._devices:
            reset = getattr(dev, "reset_stats", None)
            if reset is not None:
                reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "DeviceChain(" + " -> ".join(d.name for d in self._devices) + ")"
