"""Wire-payload record types used inside the runtime.

Every :class:`~repro.network.message.Message` the runtime sends carries
one of these records as its payload; the scheduler dispatches on the
record type at execution time.  Applications never construct them
directly — proxies, reductions and migration do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.core.ids import ChareID


class Invocation:
    """One entry-method invocation on one chare.

    One is allocated per point send, so this is a ``__slots__`` class
    with a straight-line ``__init__`` instead of a dataclass.
    """

    __slots__ = ("target", "entry", "args", "kwargs")

    def __init__(self, target: ChareID, entry: str, args: tuple = (),
                 kwargs: Optional[dict] = None) -> None:
        self.target = target
        self.entry = entry
        self.args = args
        self.kwargs = {} if kwargs is None else kwargs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Invocation(target={self.target!r}, entry={self.entry!r}, "
                f"args={self.args!r}, kwargs={self.kwargs!r})")


@dataclass
class Bundle:
    """Several invocations delivered to one PE in a single message.

    Produced by broadcasts and section multicasts: the payload data is
    carried once per destination PE and fanned out locally, which is the
    optimization that keeps collective traffic off the WAN critical path.
    At delivery the bundle is expanded into individual queue entries.
    """

    invocations: List[Invocation]


@dataclass
class RelayMsg:
    """A multicast's payload in flight to a cluster- or node-root PE.

    Produced by the hierarchical collective-routing mode: instead of one
    bundle per destination PE (a broadcast to a 32-PE remote cluster
    crossing the WAN 32 times), the sender ships **one** relay per
    remote cluster.  The root PE re-fans locally — per-PE bundles over
    shmem/LAN, plus nested node-level relays where several destination
    PEs share a node — so the payload crosses the wide area exactly once
    per cluster.  The relay execution happens inside an entry-method
    context, so the re-fanned messages carry the relay's execution id as
    their ``cause`` and causal/critical-path analysis stays exact.
    """

    collection: int
    entry: str
    args: tuple
    kwargs: dict
    #: ``[(dst_pe, [indices...]), ...]`` — the targets this relay covers,
    #: grouped by hosting PE (all within one cluster, sorted by PE).
    groups: List[Tuple[int, List[Any]]]
    #: Explicit per-hop wire size override (``None`` = computed).
    size: Optional[int]
    priority: Optional[int]
    tag: str
    #: Relay depth of this hop in the multicast tree (1 = origin ->
    #: cluster root, 2 = cluster root -> node root).  Recorded in hop
    #: ledgers so wire-level attribution can separate relay tiers.
    hop: int = 1


@dataclass
class ReductionMsg:
    """A combined partial travelling up the reduction spanning tree."""

    collection: int
    red_num: int
    op: str
    value: Any
    #: PE that combined and sent this partial (a tree child).
    from_pe: int
    #: Where the final value goes (EntryRef / callable), carried along.
    target: Any


@dataclass
class MigrationMsg:
    """A chare's packed state in flight to its new home PE."""

    chare_id: ChareID
    chare: Any
    old_pe: int
    new_pe: int


@dataclass
class DriverCall:
    """A host-level callback scheduled to run on a PE at a virtual time.

    Produced when a reduction targets a plain Python callable (driver
    code): the call is wrapped as a zero-cost message to the root PE so
    it executes at the reduction's true completion time and shows up in
    traces like everything else.
    """

    fn: Any
    args: Tuple[Any, ...] = ()
