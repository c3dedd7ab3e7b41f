"""Reliable delivery over a lossy WAN: ack / retransmit / dedup.

The fabric is a datagram service: with a :class:`FaultyDevice` in the
chain, messages vanish, double up, or arrive late.  Message-driven
objects tolerate *latency*, but the runtime's correctness assumes every
message eventually arrives exactly once (a lost ghost deadlocks the
stencil; a duplicated one corrupts it).  :class:`ReliableTransport`
restores that guarantee the way MPWide and MPICH-G2 do for real Grid
links — a lightweight ARQ protocol above the unreliable path:

* every cross-WAN message is tracked until the receiver's **ack** (a
  small reverse-direction message, itself subject to faults) comes back;
* a per-transfer **retransmit timer** (``Engine.post`` / ``cancel``)
  resends on timeout with exponential backoff, giving up with a
  :class:`~repro.errors.RetransmitError` after a capped retry budget
  (so a permanently dark link surfaces as an error, not a silent hang);
* the receiver **deduplicates** by message sequence id, so wire
  duplicates and spurious retransmissions deliver exactly once;
* the retransmission timeout adapts per (src, dst) pair via the classic
  Jacobson/Karels SRTT/RTTVAR estimator with Karn's rule (no RTT samples
  from retransmitted transfers), seeded from the fabric's stats-free
  :meth:`~repro.network.fabric.NetworkFabric.one_way_time` probe.

Intra-cluster traffic bypasses the protocol entirely (those links are
modelled loss-free; acking them would double the event count), so the
wrapper is free when no faults are configured on the WAN.

Everything is deterministic: timers fire at virtual times derived from
seeded draws, so two same-seed runs retransmit identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError, RetransmitError
from repro.network.fabric import DeliverFn, FabricStats, NetworkFabric
from repro.network.message import Message
from repro.network.topology import GridTopology
from repro.sim.engine import Engine, EventHandle
from repro.sim.trace import TraceAggregator


@dataclass(frozen=True)
class RetransmitPolicy:
    """Tunables of the ack/retransmit protocol.

    The defaults suit millisecond-class WAN latencies (the paper's
    TeraGrid path): first RTO is twice the model round-trip, backoff
    doubles it per timeout, and eight retries ride out ~0.5 s outages.
    """

    #: Wire size of an ack message (sequence id + header).
    ack_bytes: int = 64
    #: First RTO = ``initial_rto_factor`` x modelled round-trip time.
    initial_rto_factor: float = 2.0
    #: Bounds on the retransmission timeout, seconds.
    rto_min: float = 100e-6
    rto_max: float = 5.0
    #: Multiplier applied to the RTO on every timeout.
    backoff: float = 2.0
    #: Retransmissions allowed before the transfer fails.
    max_retries: int = 8
    #: SRTT/RTTVAR gains and the variance weight in RTO = SRTT + k*VAR.
    srtt_gain: float = 0.125
    rttvar_gain: float = 0.25
    rttvar_weight: float = 4.0

    def __post_init__(self) -> None:
        if self.ack_bytes < 0:
            raise ConfigurationError(f"negative ack_bytes {self.ack_bytes}")
        if not (0 < self.rto_min <= self.rto_max):
            raise ConfigurationError(
                f"need 0 < rto_min <= rto_max, got {self.rto_min}, "
                f"{self.rto_max}")
        if self.backoff < 1.0 or self.initial_rto_factor <= 0:
            raise ConfigurationError("backoff must be >= 1, factor > 0")
        if self.max_retries < 0:
            raise ConfigurationError(f"negative max_retries {self.max_retries}")


@dataclass
class ReliableStats:
    """Counters kept by one :class:`ReliableTransport`."""

    transfers: int = 0          # reliable transfers initiated
    acked: int = 0              # transfers completed (ack received)
    retransmits: int = 0        # data resends triggered by timeouts
    dups_suppressed: int = 0    # arrivals discarded as already-delivered
    acks_sent: int = 0          # acks emitted by the receiver side
    rtt_samples: int = 0        # unambiguous RTT measurements taken
    failures: int = 0           # transfers that exhausted their retries

    def as_metrics(self) -> Dict[str, int]:
        """Flat ``reliable.*`` metric names for the observability registry."""
        return {
            "reliable.transfers": self.transfers,
            "reliable.acked": self.acked,
            "reliable.retransmits": self.retransmits,
            "reliable.dups_suppressed": self.dups_suppressed,
            "reliable.acks_sent": self.acks_sent,
            "reliable.rtt_samples": self.rtt_samples,
            "reliable.failures": self.failures,
        }


@dataclass
class _RttState:
    """Jacobson/Karels estimator state for one (src, dst) pair."""

    srtt: float
    rttvar: float

    def update(self, sample: float, policy: RetransmitPolicy) -> None:
        err = sample - self.srtt
        self.srtt += policy.srtt_gain * err
        self.rttvar += policy.rttvar_gain * (abs(err) - self.rttvar)

    def rto(self, policy: RetransmitPolicy) -> float:
        return min(max(self.srtt + policy.rttvar_weight * self.rttvar,
                       policy.rto_min), policy.rto_max)


@dataclass
class _Pending:
    """One in-flight reliable transfer on the sender side."""

    msg: Message
    deliver: DeliverFn
    rto: float
    attempts: int = 0
    timer: Optional[EventHandle] = None
    last_sent: float = 0.0


class ReliableTransport:
    """A drop-in fabric wrapper adding exactly-once WAN delivery.

    Exposes the :class:`~repro.network.fabric.NetworkFabric` surface the
    runtime uses (``send``, ``one_way_time``, ``reset_stats``, plus the
    ``engine`` / ``topology`` / ``tracer`` / ``stats`` attributes), so
    :class:`~repro.core.rts.Runtime` works unchanged on top of it.

    Parameters
    ----------
    fabric:
        The underlying (possibly faulty) datagram fabric.
    policy:
        Protocol tunables; ``None`` uses the defaults.
    """

    def __init__(self, fabric: NetworkFabric,
                 policy: Optional[RetransmitPolicy] = None) -> None:
        self.fabric = fabric
        self.policy = policy or RetransmitPolicy()
        self.rstats = ReliableStats()
        self._pending: Dict[int, _Pending] = {}
        self._delivered: Set[int] = set()
        self._rtt: Dict[Tuple[int, int], _RttState] = {}

    # -- fabric surface delegation ---------------------------------------

    @property
    def engine(self) -> Engine:
        return self.fabric.engine

    @property
    def topology(self) -> GridTopology:
        return self.fabric.topology

    @property
    def tracer(self) -> Optional[TraceAggregator]:
        return self.fabric.tracer

    @property
    def stats(self) -> FabricStats:
        return self.fabric.stats

    @property
    def wan_in_flight(self) -> int:
        """Cross-WAN wire copies currently in transit (fabric gauge)."""
        return self.fabric.wan_in_flight

    @property
    def wan_sent(self) -> int:
        """Cumulative cross-WAN wire copies put on the wire."""
        return self.fabric.wan_sent

    def one_way_time(self, src_pe: int, dst_pe: int,
                     size_bytes: int) -> float:
        return self.fabric.one_way_time(src_pe, dst_pe, size_bytes)

    def reset_stats(self) -> None:
        self.fabric.reset_stats()
        self.rstats = ReliableStats()

    # -- sending ----------------------------------------------------------

    def send(self, msg: Message, deliver: DeliverFn) -> float:
        """Dispatch *msg*; cross-WAN messages get the ARQ treatment.

        Returns the (first-copy) fabric arrival time; for a reliable
        transfer whose first copy is dropped this is ``math.inf`` even
        though a retransmission will eventually deliver it.
        """
        if not self.topology.crosses_wan(msg.src_pe, msg.dst_pe):
            return self.fabric.send(msg, deliver)

        pend = _Pending(msg=msg, deliver=deliver,
                        rto=self._first_rto(msg))
        self._pending[msg.seq] = pend
        self.rstats.transfers += 1
        return self._transmit(pend)

    def _first_rto(self, msg: Message) -> float:
        policy = self.policy
        state = self._rtt.get((msg.src_pe, msg.dst_pe))
        if state is not None:
            return state.rto(policy)
        round_trip = (self.one_way_time(msg.src_pe, msg.dst_pe,
                                        msg.size_bytes)
                      + self.one_way_time(msg.dst_pe, msg.src_pe,
                                          policy.ack_bytes))
        return min(max(policy.initial_rto_factor * round_trip,
                       policy.rto_min), policy.rto_max)

    def _transmit(self, pend: _Pending) -> float:
        engine = self.engine
        pend.attempts += 1
        pend.last_sent = engine.now
        # Stamp the attempt so the flight recorder can tell a
        # retransmission's wire copy apart from the original's.
        pend.msg.arq_attempt = pend.attempts
        if pend.attempts > 1:
            self.rstats.retransmits += 1
            if self.tracer is not None:
                self.tracer.note_retransmit()
        seq = pend.msg.seq
        arrival = self.fabric.send(
            pend.msg, lambda m, d=pend.deliver: self._on_data(m, d))
        pend.timer = engine.post_in(
            pend.rto, lambda seq=seq: self._on_timeout(seq))
        return arrival

    def _on_timeout(self, seq: int) -> None:
        pend = self._pending.get(seq)
        if pend is None:  # acked after the timer was already queued
            return
        policy = self.policy
        if pend.attempts > policy.max_retries:
            self._pending.pop(seq)
            self.rstats.failures += 1
            msg = pend.msg
            raise RetransmitError(
                f"message seq={seq} ({msg.tag!r}, PE {msg.src_pe} -> "
                f"PE {msg.dst_pe}) undelivered after {pend.attempts} "
                f"attempts; WAN presumed down")
        pend.rto = min(pend.rto * policy.backoff, policy.rto_max)
        self._transmit(pend)

    # -- receiving ---------------------------------------------------------

    def _on_data(self, msg: Message, deliver: DeliverFn) -> None:
        """A wire copy arrived at the destination: ack, dedup, deliver."""
        seq = msg.seq
        # Always (re-)ack: the sender may be retrying because the
        # previous ack was lost, and only an ack stops that.
        self._send_ack(msg)
        if seq in self._delivered:
            self.rstats.dups_suppressed += 1
            if self.tracer is not None:
                self.tracer.note_dup_suppressed()
            return
        self._delivered.add(seq)
        deliver(msg)

    def _send_ack(self, msg: Message) -> None:
        self.rstats.acks_sent += 1
        ack = Message(src_pe=msg.dst_pe, dst_pe=msg.src_pe,
                      size_bytes=self.policy.ack_bytes,
                      tag=f"ack:{msg.seq}", ack_for=msg.seq)
        self.fabric.send(
            ack, lambda _m, seq=msg.seq: self._on_ack(seq))

    def _on_ack(self, seq: int) -> None:
        pend = self._pending.pop(seq, None)
        if pend is None:  # duplicate or stale ack
            return
        if pend.timer is not None:
            self.engine.cancel(pend.timer)
        self.rstats.acked += 1
        if pend.attempts == 1:
            # Karn's rule: only unambiguous (never-retransmitted)
            # transfers yield RTT samples.
            sample = self.engine.now - pend.last_sent
            self._observe_rtt((pend.msg.src_pe, pend.msg.dst_pe), sample)

    def _observe_rtt(self, pair: Tuple[int, int], sample: float) -> None:
        self.rstats.rtt_samples += 1
        state = self._rtt.get(pair)
        if state is None:
            self._rtt[pair] = _RttState(srtt=sample, rttvar=sample / 2.0)
        else:
            state.update(sample, self.policy)

    # -- introspection ------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Reliable transfers currently awaiting an ack."""
        return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ReliableTransport(in_flight={self.in_flight}, "
                f"acked={self.rstats.acked}, "
                f"retransmits={self.rstats.retransmits})")
