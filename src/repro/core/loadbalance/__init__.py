"""Measurement-based load balancing (paper §2.1 and §6).

The runtime records per-chare compute time and per-pair communication in
an :class:`~repro.core.loadbalance.metrics.LBDatabase`; strategies turn a
database + topology + current mapping into a migration plan.

Strategies provided:

* :class:`~repro.core.loadbalance.greedy.GreedyLB` — global greedy;
* :class:`~repro.core.loadbalance.gridlb.GridCommLB` — the paper's §6
  Grid balancer (never crosses clusters, spreads WAN talkers);
* :class:`~repro.core.loadbalance.rotate.RotateLB` — migration shakeout.
"""

from repro.core.loadbalance.base import (
    LBStrategy,
    imbalance,
    pe_loads,
    validate_plan,
)
from repro.core.loadbalance.greedy import GreedyLB
from repro.core.loadbalance.gridlb import GridCommLB
from repro.core.loadbalance.metrics import CommRecord, LBDatabase
from repro.core.loadbalance.rotate import RotateLB

__all__ = [
    "LBStrategy",
    "LBDatabase",
    "CommRecord",
    "GreedyLB",
    "GridCommLB",
    "RotateLB",
    "pe_loads",
    "imbalance",
    "validate_plan",
]
