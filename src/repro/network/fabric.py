"""The network fabric: couples chains to the event engine.

:class:`NetworkFabric` is the single entry point the runtime uses to move
a message between processors.  It resolves the message against the VMI
send chain, charges filter + transport time (including any contention
queueing), and posts a delivery event on the simulation engine.

Delivery invokes a callback rather than touching PE queues directly so the
network layer stays ignorant of the runtime layer above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.network.chain import DeviceChain
from repro.network.message import Message
from repro.network.topology import GridTopology
from repro.sim.engine import Engine
from repro.sim.trace import TraceSink

DeliverFn = Callable[[Message], None]


@dataclass
class FabricStats:
    """Aggregate traffic statistics, grouped by transport device name."""

    messages: Dict[str, int] = field(default_factory=dict)
    bytes: Dict[str, int] = field(default_factory=dict)
    #: Seconds of artificial/filter delay charged in total.
    filter_delay_total: float = 0.0
    #: Messages lost on the wire (fault injection), by transport name.
    dropped: Dict[str, int] = field(default_factory=dict)
    #: Extra wire copies injected (fault injection), by transport name.
    duplicated: Dict[str, int] = field(default_factory=dict)

    def record(self, transport_name: str, size: int, filter_delay: float) -> None:
        self.messages[transport_name] = self.messages.get(transport_name, 0) + 1
        self.bytes[transport_name] = self.bytes.get(transport_name, 0) + size
        self.filter_delay_total += filter_delay

    def record_drop(self, transport_name: str) -> None:
        self.dropped[transport_name] = self.dropped.get(transport_name, 0) + 1

    def record_duplicates(self, transport_name: str, copies: int) -> None:
        self.duplicated[transport_name] = (
            self.duplicated.get(transport_name, 0) + copies)

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    @property
    def total_duplicated(self) -> int:
        return sum(self.duplicated.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def as_metrics(self) -> Dict[str, float]:
        """Flat ``fabric.*`` metric names for the observability registry."""
        out: Dict[str, float] = {
            "fabric.filter_delay_total_s": self.filter_delay_total,
            "fabric.messages_total": self.total_messages,
            "fabric.bytes_total": self.total_bytes,
            "fabric.dropped_total": self.total_dropped,
            "fabric.duplicated_total": self.total_duplicated,
        }
        for name, n in self.messages.items():
            out[f"fabric.{name}.messages"] = n
        for name, n in self.bytes.items():
            out[f"fabric.{name}.bytes"] = n
        for name, n in self.dropped.items():
            out[f"fabric.{name}.dropped"] = n
        for name, n in self.duplicated.items():
            out[f"fabric.{name}.duplicated"] = n
        return out


class NetworkFabric:
    """Routes messages through a device chain on a simulation engine.

    Parameters
    ----------
    engine:
        The discrete-event engine providing the clock.
    topology:
        Machine layout used for chain dispatch.
    chain:
        VMI send chain (shared by all PEs; per-PE chains are not needed
        for the paper's experiments).
    rng:
        Optional RNG consulted by jittered links; omit for fully
        deterministic artificial-latency runs.
    tracer:
        Optional trace sink (a :class:`~repro.sim.trace.Tracer`,
        :class:`~repro.sim.trace.TraceAggregator`, or
        :class:`~repro.sim.trace.TraceFanout`) receiving send/deliver
        events.
    """

    def __init__(self, engine: Engine, topology: GridTopology,
                 chain: DeviceChain,
                 rng: Optional[np.random.Generator] = None,
                 tracer: Optional[TraceSink] = None) -> None:
        self.engine = engine
        self.topology = topology
        self.chain = chain
        self.rng = rng
        self.tracer = tracer
        self.stats = FabricStats()
        #: Wire copies posted but not yet delivered (live gauges, used by
        #: the telemetry sampler; dropped messages never count).
        self.in_flight = 0
        self.wan_in_flight = 0
        #: Cumulative cross-WAN wire copies put on the wire (denominator
        #: for the sampler's retransmit-rate series).
        self.wan_sent = 0

    def send(self, msg: Message, deliver: DeliverFn) -> float:
        """Dispatch *msg*; *deliver* runs at the computed arrival time.

        Returns the absolute virtual arrival time (useful for tests) of
        the first wire copy, or ``math.inf`` when fault injection dropped
        the message (nothing will ever be delivered).

        Fault devices in the chain may also duplicate the message; every
        extra copy is transported independently (its own jitter draw and
        contention slot) and invokes *deliver* again on arrival —
        suppressing duplicates is the reliable layer's job, not ours.
        """
        if msg.size_bytes < 0:
            # The fabric is the single choke point every message passes
            # through, so declared sizes are validated once here instead
            # of in the per-message ``Message.__init__`` hot path.
            raise ValueError(f"negative message size {msg.size_bytes}")
        now = self.engine.now
        msg.sent_at = now
        crossed_wan = self.topology.crosses_wan(msg.src_pe, msg.dst_pe)
        msg.crossed_wan = crossed_wan

        tracer = self.tracer
        # Flight recorder: collect per-device hop spans only when a live
        # sink wants them.  With tracing off this send takes the exact
        # code path (and float expressions) of the seed, so virtual-time
        # results are bit-identical with observability disabled.
        want_hops = (tracer is not None and tracer.enabled
                     and hasattr(tracer, "message_hops"))
        ledger: Optional[list] = [] if want_hops else None
        route = self.chain.resolve(msg, self.topology, self.rng,
                                   now=now, ledger=ledger)
        wire_msg = route.message

        if tracer is not None:
            tracer.message_sent(now, msg.src_pe, msg.dst_pe,
                                wire_msg.size_bytes, msg.tag,
                                crossed_wan, seq=msg.seq,
                                cause=msg.cause, ack_for=msg.ack_for,
                                src_obj=msg.src_obj, dst_obj=msg.dst_obj)

        if route.dropped:
            self.stats.record_drop(route.transport.name)
            if tracer is not None:
                tracer.message_dropped(now, msg.src_pe, msg.dst_pe,
                                       wire_msg.size_bytes, msg.tag,
                                       crossed_wan, seq=msg.seq,
                                       cause=msg.cause,
                                       ack_for=msg.ack_for,
                                       src_obj=msg.src_obj,
                                       dst_obj=msg.dst_obj)
            return math.inf

        if route.duplicates:
            self.stats.record_duplicates(route.transport.name,
                                         route.duplicates)

        engine = self.engine
        stats = self.stats
        transport_start = now + route.pre_transport_delay
        first_arrival = math.inf
        for _copy in range(1 + route.duplicates):
            if want_hops:
                copy_ledger: list = list(ledger)
                transit = route.transport.transit(
                    wire_msg, self.topology, transport_start, self.rng,
                    ledger=copy_ledger)
            else:
                copy_ledger = None
                transit = route.transport.transit(
                    wire_msg, self.topology, transport_start, self.rng)
            arrival = transport_start + transit
            if arrival < first_arrival:
                first_arrival = arrival
            if copy_ledger is not None:
                # One flight-recorder record per *wire copy* actually
                # put on the wire (drops returned earlier; duplicates
                # each get their own ledger with their own jitter and
                # contention spans).
                tracer.message_hops(
                    now, msg.src_pe, msg.dst_pe, wire_msg.size_bytes,
                    msg.tag, crossed_wan, msg.seq, arrival,
                    tuple(copy_ledger), relay_hop=msg.relay_hop,
                    arq_attempt=msg.arq_attempt)
            stats.record(route.transport.name, wire_msg.size_bytes,
                         route.pre_transport_delay)
            self.in_flight += 1
            if crossed_wan:
                self.wan_in_flight += 1
                self.wan_sent += 1
            # Bound methods + args tuples, not per-copy closures: the
            # delivery post is once-per-wire-copy, so allocation here is
            # pure per-event overhead.
            if tracer is not None:
                engine.post(arrival, self._deliver_traced,
                            args=(msg, arrival, wire_msg.size_bytes,
                                  deliver))
            else:
                engine.post(arrival, self._deliver_plain,
                            args=(msg, deliver))
        return first_arrival

    # Kept only because benchmarks/e2e/spans.py wraps it by name.
    def inject(self, arrival: float, msg: Message, wire_bytes: int,
               deliver: DeliverFn) -> None:
        """Post the delivery of a wire copy whose transit is already known.

        The chain, transit and send record are the caller's business;
        this side only posts the delivery event and takes over the
        in-flight gauges for the copy.  *arrival* must be
        ``>= engine.now``.
        """
        self.in_flight += 1
        if msg.crossed_wan:
            self.wan_in_flight += 1
        if self.tracer is not None:
            self.engine.post(arrival, self._deliver_traced,
                             args=(msg, arrival, wire_bytes, deliver))
        else:
            self.engine.post(arrival, self._deliver_plain,
                             args=(msg, deliver))

    def _deliver_plain(self, msg: Message, deliver: DeliverFn) -> None:
        """Fire one wire copy's arrival (tracing off)."""
        self._land(msg)
        deliver(msg)

    def _deliver_traced(self, msg: Message, arrival: float,
                        wire_bytes: int, deliver: DeliverFn) -> None:
        """Fire one wire copy's arrival, recording the delivery event."""
        self._land(msg)
        self.tracer.message_delivered(arrival, msg.src_pe, msg.dst_pe,
                                      wire_bytes, msg.tag,
                                      msg.crossed_wan, seq=msg.seq,
                                      cause=msg.cause,
                                      ack_for=msg.ack_for,
                                      src_obj=msg.src_obj,
                                      dst_obj=msg.dst_obj)
        deliver(msg)

    def _land(self, msg: Message) -> None:
        """Book-keep one wire copy leaving the wire (delivery instant)."""
        self.in_flight -= 1
        if msg.crossed_wan:
            self.wan_in_flight -= 1

    def one_way_time(self, src_pe: int, dst_pe: int, size_bytes: int) -> float:
        """Model-only query: transit time for a hypothetical message.

        Does not consume contention capacity, does not draw jitter, does
        not count in statistics.  Used by analytic sanity checks and by
        load balancers estimating communication cost.
        """
        probe = Message(src_pe=src_pe, dst_pe=dst_pe, size_bytes=size_bytes)
        route = self.chain.resolve(probe, self.topology, None, record=False)
        return (route.pre_transport_delay
                + route.transport.link.transit_time(route.message.size_bytes))

    def reset_stats(self) -> None:
        """Clear fabric and device statistics (between benchmark reps)."""
        self.stats = FabricStats()
        self.chain.reset_stats()
