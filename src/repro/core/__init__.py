"""The message-driven object runtime — the paper's primary contribution.

This package is a Python realization of the Charm++ execution model the
paper builds on: applications decompose into many *chares* (virtual
processors) organized in indexed arrays; chares interact exclusively via
asynchronous entry-method invocations; each physical processor runs a
message-driven scheduler that executes whichever object has work, which
automatically overlaps computation with communication — including
multi-millisecond wide-area Grid latencies (paper §4).

Quick tour
----------
* declare chares: subclass :class:`Chare`, decorate handlers with
  :func:`entry`;
* create collections: :meth:`Runtime.create_array` with a
  :mod:`~repro.core.mapping` strategy;
* communicate: call entry methods on proxies (``arr[i].foo(x)``),
  broadcast (``arr.foo(x)``), multicast (``arr.section(idxs).foo(x)``),
  reduce (``self.contribute(v, "sum", target)``);
* model compute: ``self.charge(seconds)`` or static ``@entry(cost=...)``;
* balance load: :meth:`Runtime.load_balance` with a strategy from
  :mod:`~repro.core.loadbalance`.
"""

from repro.core.chare import Chare, MainChare
from repro.core.collectives import SectionProxy
from repro.core.costs import CacheHierarchy, CachedLinearCost, LinearCost
from repro.core.ids import ChareID, EntryRef, normalize_index
from repro.core.mapping import (
    BlockMapping,
    ClusterSplitMapping,
    ExplicitMapping,
    RoundRobinMapping,
    grid2d_split_mapping,
    grid3d_split_mapping,
)
from repro.core.method import entry, entry_info, invocation_bytes, payload_bytes
from repro.core.proxy import ArrayProxy, ChareProxy
from repro.core.reduction import ReductionManager, build_tree
from repro.core.rts import Runtime, RuntimeConfig

__all__ = [
    "Chare",
    "MainChare",
    "entry",
    "entry_info",
    "ChareID",
    "EntryRef",
    "normalize_index",
    "Runtime",
    "RuntimeConfig",
    "ArrayProxy",
    "ChareProxy",
    "SectionProxy",
    "BlockMapping",
    "RoundRobinMapping",
    "ExplicitMapping",
    "ClusterSplitMapping",
    "grid2d_split_mapping",
    "grid3d_split_mapping",
    "ReductionManager",
    "build_tree",
    "LinearCost",
    "CacheHierarchy",
    "CachedLinearCost",
    "payload_bytes",
    "invocation_bytes",
]
