"""Measurement database for load balancing.

Charm++'s measurement-based load balancers observe, between balancing
steps, how much compute time each chare consumed and how much it talked
to whom.  The scheduler and send path feed the same observations into
:class:`LBDatabase`; strategies read it through the accessors below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ids import ChareID


@dataclass
class CommRecord:
    """Accumulated traffic between one ordered chare pair."""

    messages: int = 0
    bytes: int = 0
    #: Messages that crossed the wide-area link (at send-time mapping).
    wan_messages: int = 0


@dataclass
class LBDatabase:
    """Per-chare load and per-pair communication since the last reset."""

    chare_load: Dict[ChareID, float] = field(default_factory=dict)
    comm: Dict[Tuple[ChareID, ChareID], CommRecord] = field(
        default_factory=dict)

    # -- recording (called by the runtime) ---------------------------------

    def record_execution(self, chare: ChareID, cost: float) -> None:
        self.chare_load[chare] = self.chare_load.get(chare, 0.0) + cost

    def record_send(self, src: Optional[ChareID], dst: ChareID,
                    size_bytes: int, crossed_wan: bool) -> None:
        if src is None:
            return  # driver-originated traffic is not a chare's doing
        key = (src, dst)
        rec = self.comm.get(key)
        if rec is None:
            rec = self.comm[key] = CommRecord()
        rec.messages += 1
        rec.bytes += size_bytes
        if crossed_wan:
            rec.wan_messages += 1

    def reset(self) -> None:
        """Forget everything (called after each balancing step)."""
        self.chare_load.clear()
        self.comm.clear()

    # -- queries (used by strategies) ----------------------------------------

    def load_of(self, chare: ChareID) -> float:
        return self.chare_load.get(chare, 0.0)

    def known_chares(self) -> List[ChareID]:
        """Chares with any recorded activity, deterministically ordered."""
        seen = set(self.chare_load)
        for (src, dst) in self.comm:
            seen.add(src)
            seen.add(dst)
        return sorted(seen)

    def partners_of(self, chare: ChareID) -> List[Tuple[ChareID, CommRecord]]:
        """Every chare *chare* exchanged messages with, and the traffic."""
        out: Dict[ChareID, CommRecord] = {}
        for (src, dst), rec in self.comm.items():
            other = None
            if src == chare:
                other = dst
            elif dst == chare:
                other = src
            if other is None:
                continue
            agg = out.setdefault(other, CommRecord())
            agg.messages += rec.messages
            agg.bytes += rec.bytes
            agg.wan_messages += rec.wan_messages
        return sorted(out.items(), key=lambda kv: kv[0])

    def wan_talkers(self) -> List[ChareID]:
        """Chares that sent or received wide-area traffic.

        These are the objects the paper's §6 Grid load balancer singles
        out for even distribution within their home cluster.
        """
        talkers = set()
        for (src, dst), rec in self.comm.items():
            if rec.wan_messages > 0:
                talkers.add(src)
                talkers.add(dst)
        return sorted(talkers)

    def total_load(self) -> float:
        return sum(self.chare_load.values())
