"""The runtime system facade.

:class:`Runtime` owns everything a Charm++ process would: the chare
registry and location manager, the per-PE schedulers, the reduction
manager, the load-balancing database, and the send path into the network
fabric.  Applications interact with it through a handful of calls:

>>> rts = Runtime(engine, fabric)
>>> blocks = rts.create_array(StencilBlock, indices, mapping, args_of)
>>> blocks.start(steps=100)          # broadcast
>>> rts.run()                        # drain the simulation

Everything else — asynchronous sends, reductions, multicasts, migration —
flows through proxies and :class:`~repro.core.chare.Chare` helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.chare import Chare
from repro.core.collectives import process_relay, send_bundled
from repro.core.ids import ChareID, EntryRef, Index, normalize_index
from repro.core.loadbalance.metrics import LBDatabase
from repro.core.method import entry_info, invocation_bytes, payload_bytes
from repro.core.proxy import ArrayProxy, ChareProxy
from repro.core.records import (
    DriverCall,
    Invocation,
    MigrationMsg,
    ReductionMsg,
)
from repro.core.reduction import ReductionManager
from repro.core.scheduler import Scheduler
from repro.errors import (
    ConfigurationError,
    MigrationError,
    RuntimeSystemError,
    UnknownChareError,
)
from repro.network.fabric import NetworkFabric
from repro.network.message import (
    DEFAULT_PRIORITY,
    WAN_EXPEDITED,
    Message,
    reset_seq_counter,
)
from repro.network.topology import GridTopology
from repro.sim.engine import Engine
from repro.sim.trace import TraceAggregator


@dataclass
class RuntimeConfig:
    """Tunable runtime constants (all times in seconds).

    The defaults model a lightweight native runtime of the paper's era:
    a couple of microseconds of scheduling work per message, and small
    fixed costs for runtime-internal message handling.
    """

    #: Charged on every message execution (queue pop + dispatch).
    scheduler_overhead: float = 2e-6
    #: Extra cost of combining one reduction partial.
    reduction_overhead: float = 1e-6
    #: Cost of forwarding a message that missed a migrated chare.
    forward_overhead: float = 2e-6
    #: Cost of unpacking an arriving migrated chare.
    migration_overhead: float = 10e-6
    #: Cost of re-fanning an arrived multicast relay at a cluster/node
    #: root (hierarchical routing only).
    relay_overhead: float = 2e-6
    #: Collective downward routing: ``"flat"`` sends one bundle per
    #: destination PE; ``"hierarchical"`` sends one relay per remote
    #: cluster whose root PE re-fans locally (see
    #: :mod:`repro.core.collectives`).
    collective_routing: str = "flat"
    #: Use priority queues instead of FIFO (paper §4 allows both).
    prioritized_queues: bool = False
    #: §6 extension: auto-tag cross-cluster messages as high priority.
    expedite_wan: bool = False

    def __post_init__(self) -> None:
        for name in ("scheduler_overhead", "reduction_overhead",
                     "forward_overhead", "migration_overhead",
                     "relay_overhead"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.collective_routing not in ("flat", "hierarchical"):
            raise ConfigurationError(
                f"collective_routing must be 'flat' or 'hierarchical', "
                f"got {self.collective_routing!r}")
        if self.expedite_wan and not self.prioritized_queues:
            raise ConfigurationError(
                "expedite_wan requires prioritized_queues=True")


class _Collection:
    """Registry record for one chare collection."""

    __slots__ = ("cid", "cls", "mapping", "objects")

    def __init__(self, cid: int, cls: type) -> None:
        self.cid = cid
        self.cls = cls
        self.mapping: Dict[Index, int] = {}
        self.objects: Dict[Index, Optional[Chare]] = {}


class Runtime:
    """A complete message-driven-objects runtime on a simulated grid.

    Parameters
    ----------
    engine:
        The discrete-event engine (shared with the fabric).
    fabric:
        Network fabric carrying all inter-PE messages — either a bare
        :class:`~repro.network.fabric.NetworkFabric` or a
        :class:`~repro.network.reliable.ReliableTransport` wrapping one
        (both expose the same send/topology/tracer surface).
    config:
        Runtime constants; defaults are fine for the paper's experiments.
    """

    def __init__(self, engine: Engine, fabric: "NetworkFabric",
                 config: Optional[RuntimeConfig] = None) -> None:
        if fabric.engine is not engine:
            raise ConfigurationError("fabric must share the runtime's engine")
        # Message seq ids restart at zero with each runtime so a run's
        # trace digests do not depend on what else ran earlier in the
        # process (sweep position, pool worker reuse, test ordering).
        reset_seq_counter()
        self.engine = engine
        self.fabric = fabric
        self.config = config or RuntimeConfig()
        self.scheduler = Scheduler(self)
        self.reductions = ReductionManager(self)
        self.lb_db = LBDatabase()
        self._collections: Dict[int, _Collection] = {}
        self._next_collection = 0
        self._awaiting_arrival: Dict[ChareID, List[Message]] = {}
        self._quiescence_cbs: List[Callable[[], None]] = []
        self._migrations_done = 0
        #: Memoized ``(collection, entry) -> declared priority or None``:
        #: the getattr + entry_info walk is paid once per entry, not once
        #: per send.
        self._declared_prio: Dict[Tuple[int, str], Optional[int]] = {}
        #: Memoized ``ChareID -> str(ChareID)`` labels for trace object
        #: attribution; consulted only when tracing is enabled.
        self._obj_labels: Dict[ChareID, str] = {}

    # -- basic accessors -------------------------------------------------------

    @property
    def topology(self) -> GridTopology:
        return self.fabric.topology

    @property
    def tracer(self) -> Optional[TraceAggregator]:
        return self.fabric.tracer

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.engine.now

    @property
    def num_pes(self) -> int:
        return self.topology.num_pes

    @property
    def migrations_done(self) -> int:
        """Total chare migrations completed so far."""
        return self._migrations_done

    # -- chare creation -------------------------------------------------------------

    def create_chare(self, cls: type, pe: int = 0, args: tuple = (),
                     kwargs: Optional[dict] = None) -> ChareProxy:
        """Create a singleton chare of *cls* on *pe*; returns its proxy."""
        self._check_pe(pe)
        coll = self._new_collection(cls)
        cid = ChareID(coll.cid, ())
        obj = cls(*args, **(kwargs or {}))
        self._register(coll, cid, obj, pe)
        return ChareProxy(self, cid)

    def create_array(self, cls: type, indices: Sequence,
                     mapping, args_of: Optional[Callable] = None,
                     args: tuple = (), kwargs: Optional[dict] = None
                     ) -> ArrayProxy:
        """Create a chare array of *cls* over *indices*.

        Parameters
        ----------
        indices:
            Element indices (ints or tuples; normalized internally).
        mapping:
            A :class:`~repro.core.mapping.Mapping` strategy, or an
            explicit ``{index: pe}`` dict.
        args_of:
            Optional per-element constructor arguments:
            ``args_of(index) -> (args, kwargs)``.  When omitted, every
            element is built with the shared *args*/*kwargs*.
        """
        norm = [normalize_index(i) for i in indices]
        if len(set(norm)) != len(norm):
            raise ConfigurationError("duplicate indices in chare array")
        if not norm:
            raise ConfigurationError("chare array needs at least one element")

        if isinstance(mapping, dict):
            table = {normalize_index(i): pe for i, pe in mapping.items()}
        else:
            table = mapping.assign(norm, self.topology)

        coll = self._new_collection(cls)
        for idx in norm:
            pe = table[idx]
            self._check_pe(pe)
            if args_of is not None:
                a, kw = args_of(idx)
            else:
                a, kw = args, (kwargs or {})
            obj = cls(*a, **kw)
            self._register(coll, ChareID(coll.cid, idx), obj, pe)
        return ArrayProxy(self, coll.cid)

    def _new_collection(self, cls: type) -> _Collection:
        coll = _Collection(self._next_collection, cls)
        self._collections[coll.cid] = coll
        self._next_collection += 1
        return coll

    def _register(self, coll: _Collection, cid: ChareID, obj: Chare,
                  pe: int) -> None:
        if not isinstance(obj, Chare):
            raise RuntimeSystemError(
                f"{type(obj).__name__} does not derive from Chare")
        obj._bind(self, cid)
        coll.mapping[cid.index] = pe
        coll.objects[cid.index] = obj

    def _check_pe(self, pe: int) -> None:
        if not (0 <= pe < self.topology.num_pes):
            raise ConfigurationError(
                f"PE {pe} out of range (have {self.topology.num_pes})")

    # -- location management ----------------------------------------------------------

    def _collection(self, cid: int) -> _Collection:
        try:
            return self._collections[cid]
        except KeyError:
            raise UnknownChareError(f"unknown collection c{cid}") from None

    def pe_of(self, chare_id: ChareID) -> int:
        """The PE currently (or imminently) hosting *chare_id*."""
        coll = self._collection(chare_id.collection)
        try:
            return coll.mapping[chare_id.index]
        except KeyError:
            raise UnknownChareError(f"unknown chare {chare_id}") from None

    def chare_object(self, chare_id: ChareID) -> Optional[Chare]:
        """The live object for *chare_id*, or ``None`` while migrating."""
        coll = self._collection(chare_id.collection)
        if chare_id.index not in coll.mapping:
            raise UnknownChareError(f"unknown chare {chare_id}")
        return coll.objects.get(chare_id.index)

    def collection_proxy(self, cid: int) -> ArrayProxy:
        self._collection(cid)
        return ArrayProxy(self, cid)

    def collection_indices(self, cid: int) -> List[Index]:
        return sorted(self._collection(cid).mapping)

    def collection_mapping(self, cid: int) -> Dict[Index, int]:
        return dict(self._collection(cid).mapping)

    def current_mapping(self) -> Dict[ChareID, int]:
        """Every chare's current PE (load balancers consume this)."""
        out: Dict[ChareID, int] = {}
        for coll in self._collections.values():
            for idx, pe in coll.mapping.items():
                out[ChareID(coll.cid, idx)] = pe
        return out

    # -- the send path ------------------------------------------------------------------

    def send(self, target: ChareID, entry: str, args: tuple, kwargs: dict,
             size: Optional[int] = None, priority: Optional[int] = None,
             tag: Optional[str] = None) -> None:
        """Asynchronously invoke ``target.entry(*args, **kwargs)``."""
        try:
            dst_pe = self._collections[target.collection].mapping[
                target.index]
        except KeyError:
            # Unknown chare: the accessor raises its UnknownChareError.
            dst_pe = self.pe_of(target)
        if priority is None:
            priority = self._default_priority(target, entry, dst_pe)
        wire = size if size is not None else invocation_bytes(args, kwargs)
        self._dispatch_payload(dst_pe, Invocation(target, entry, args, kwargs),
                               wire, priority, tag or entry, target)

    def broadcast(self, collection: int, entry: str, args: tuple,
                  kwargs: dict, size: Optional[int] = None,
                  priority: Optional[int] = None,
                  tag: Optional[str] = None) -> None:
        """Invoke *entry* on every element of *collection* (PE-bundled)."""
        send_bundled(self, collection, entry,
                     self.collection_indices(collection), args, kwargs,
                     size, priority, tag)

    def _default_priority(self, target: ChareID, entry: str,
                          dst_pe: int) -> int:
        key = (target.collection, entry)
        cache = self._declared_prio
        if key in cache:
            declared = cache[key]
        else:
            coll = self._collection(target.collection)
            method = getattr(coll.cls, entry, None)
            declared = None
            if method is not None:
                info = entry_info(method)
                if info is not None:
                    declared = info.priority
            cache[key] = declared
        if declared is not None:
            return declared
        if self.config.expedite_wan:
            src_pe = self._originating_pe()
            if self.topology.crosses_wan(src_pe, dst_pe):
                return WAN_EXPEDITED
        return DEFAULT_PRIORITY

    def _originating_pe(self) -> int:
        ctx = self.scheduler.current_context
        return ctx.pe if ctx is not None else 0

    def _obj_label(self, chare_id: ChareID) -> str:
        """Memoized, location-independent trace label for a chare.

        ``str(ChareID)`` never mentions a PE, so the label is stable
        across migration — per-object trace aggregation keyed on it
        follows the *object* wherever load balancing moves it.
        """
        label = self._obj_labels.get(chare_id)
        if label is None:
            label = str(chare_id)
            self._obj_labels[chare_id] = label
        return label

    def _dispatch_payload(self, dst_pe: int, payload: Any, size: int,
                          priority: Optional[int], tag: str,
                          dst_chare: Optional[ChareID] = None,
                          src_pe: Optional[int] = None,
                          relay_hop: int = 0) -> None:
        """Common exit point for every runtime-generated message."""
        ctx = self.scheduler._current
        if src_pe is not None:
            origin = src_pe
        elif ctx is not None:
            origin = ctx.pe
        else:
            origin = 0  # driver-originated messages start on PE 0
        msg = Message(origin, dst_pe, size, payload,
                      DEFAULT_PRIORITY if priority is None else priority, tag)
        if relay_hop:
            msg.relay_hop = relay_hop
        fabric = self.fabric
        if fabric.tracer is not None:
            # Object attribution for the trace sinks.  Labels are stamped
            # only when tracing is on, so the obs-off hot path is
            # byte-for-byte the seed's (two None slot writes aside).
            if ctx is not None and ctx.chare_id is not None:
                msg.src_obj = self._obj_label(ctx.chare_id)
            if dst_chare is not None:
                msg.dst_obj = self._obj_label(dst_chare)
        if ctx is None:
            fabric.send(msg, self.scheduler.deliver)
            return
        if ctx.chare_id is not None and dst_chare is not None:
            self.lb_db.record_send(
                ctx.chare_id, dst_chare, size,
                fabric.topology.crosses_wan(origin, dst_pe))
        # Run-to-completion: depart when the current entry finishes.
        ctx.outbox.append(msg)

    # -- execution-time services (called via Chare helpers) ------------------------

    def charge(self, seconds: float) -> None:
        ctx = self.scheduler._current
        if ctx is None:
            raise RuntimeSystemError("charge() outside an entry method")
        if seconds < 0:
            raise RuntimeSystemError(f"negative charge {seconds!r}")
        ctx.charged += seconds

    def contribute(self, chare_id: ChareID, value: Any, op: str,
                   target: Any) -> None:
        self.reductions.contribute(chare_id, value, op,
                                   self._normalize_target(target))

    def _normalize_target(self, target: Any) -> Any:
        if isinstance(target, EntryRef) or callable(target):
            return target
        if isinstance(target, tuple) and len(target) == 2:
            proxy, entry = target
            if isinstance(proxy, ChareProxy) and isinstance(entry, str):
                return EntryRef(proxy.chare_id, entry)
        raise RuntimeSystemError(
            f"invalid reduction target {target!r}; use an EntryRef, a "
            "(element_proxy, 'entry') pair, or a callable")

    def request_migration(self, chare_id: ChareID, new_pe: int) -> None:
        ctx = self.scheduler.current_context
        if ctx is None:
            # Driver context: migrate immediately.
            self.migrate(chare_id, new_pe)
            return
        ctx.migration_request = (chare_id, new_pe)

    def _process_relay(self, pe: int, relay: Any) -> None:
        """Re-fan an arrived multicast relay (scheduler hook)."""
        process_relay(self, pe, relay)

    # -- reductions: runtime-internal hooks -----------------------------------------

    def _send_reduction_partial(self, from_pe: int, to_pe: int,
                                collection: int, red_num: int, op: str,
                                value: Any, target: Any) -> None:
        payload = ReductionMsg(collection=collection, red_num=red_num,
                               op=op, value=value, from_pe=from_pe,
                               target=target)
        self._dispatch_payload(
            dst_pe=to_pe, payload=payload,
            size=64 + payload_bytes(value), priority=DEFAULT_PRIORITY,
            tag=f"red:c{collection}#{red_num}", src_pe=from_pe)

    def _deliver_reduction_result(self, root_pe: int, collection: int,
                                  red_num: int, op: str, value: Any,
                                  target: Any) -> None:
        if isinstance(target, EntryRef):
            self.send(target.chare, target.entry, (value,), {},
                      tag=f"red-result:c{collection}#{red_num}")
        elif callable(target):
            self._dispatch_payload(
                dst_pe=root_pe, payload=DriverCall(target, (value,)),
                size=0, priority=DEFAULT_PRIORITY,
                tag=f"red-cb:c{collection}#{red_num}", src_pe=root_pe)
        else:  # pragma: no cover - normalized earlier
            raise RuntimeSystemError(f"bad reduction target {target!r}")

    # -- migration -------------------------------------------------------------------------

    def migrate(self, chare_id: ChareID, new_pe: int) -> None:
        """Move *chare_id* to *new_pe*, charging pack/transit/unpack costs.

        Must be invoked at a quiescent point for the chare's collection
        with respect to reductions (see :class:`ReductionManager`).
        """
        self._check_pe(new_pe)
        coll = self._collection(chare_id.collection)
        obj = coll.objects.get(chare_id.index)
        if obj is None:
            raise MigrationError(f"{chare_id} is already migrating")
        old_pe = coll.mapping[chare_id.index]
        if old_pe == new_pe:
            return
        self.reductions.assert_no_open_reduction(chare_id.collection)
        # Location updates immediately: new sends route to the new home.
        coll.mapping[chare_id.index] = new_pe
        coll.objects[chare_id.index] = None
        payload = MigrationMsg(chare_id=chare_id, chare=obj,
                               old_pe=old_pe, new_pe=new_pe)
        self._dispatch_payload(
            dst_pe=new_pe, payload=payload, size=obj.pack_size(),
            priority=DEFAULT_PRIORITY, tag=f"migrate:{chare_id}",
            src_pe=old_pe)

    def _complete_migration(self, pe: int, msg: MigrationMsg) -> None:
        coll = self._collection(msg.chare_id.collection)
        if coll.mapping.get(msg.chare_id.index) != pe:
            raise MigrationError(
                f"{msg.chare_id} arrived at PE {pe} but is mapped to "
                f"{coll.mapping.get(msg.chare_id.index)}")
        coll.objects[msg.chare_id.index] = msg.chare
        self._migrations_done += 1
        msg.chare.on_migrated(msg.old_pe, msg.new_pe)
        for buffered in self._awaiting_arrival.pop(msg.chare_id, []):
            self.scheduler.push_local(pe, buffered)

    def _buffer_until_arrival(self, chare_id: ChareID, msg: Message) -> None:
        self._awaiting_arrival.setdefault(chare_id, []).append(msg)

    def _forward(self, from_pe: int, to_pe: int, msg: Message) -> None:
        fwd = Message(src_pe=from_pe, dst_pe=to_pe,
                      size_bytes=msg.size_bytes, payload=msg.payload,
                      priority=msg.priority, tag=msg.tag)
        # Preserve object attribution across the forwarding hop so
        # per-object aggregation keeps following the migrated chare.
        fwd.src_obj = msg.src_obj
        fwd.dst_obj = msg.dst_obj
        ctx = self.scheduler.current_context
        if ctx is not None:
            ctx.outbox.append(fwd)
        else:  # pragma: no cover - forwards always happen in execution
            self.fabric.send(fwd, self.scheduler.deliver)

    # -- load balancing ------------------------------------------------------------------------

    def load_balance(self, strategy) -> Dict[ChareID, int]:
        """Apply *strategy* to the measured load database.

        Returns the applied migration plan (possibly empty).  Call at a
        quiescent point (typically from a reduction callback).
        """
        mapping = self.current_mapping()
        plan = strategy.plan(self.lb_db, self.topology, mapping)
        applied: Dict[ChareID, int] = {}
        for chare_id, new_pe in sorted(plan.items()):
            if self.pe_of(chare_id) != new_pe:
                self.migrate(chare_id, new_pe)
                applied[chare_id] = new_pe
        self.lb_db.reset()
        return applied

    # -- quiescence & execution --------------------------------------------------------------------

    def on_quiescence(self, callback: Callable[[], None]) -> None:
        """Run *callback* (once) when no work remains anywhere."""
        self._quiescence_cbs.append(callback)

    def _maybe_quiescent(self) -> None:
        if not self._quiescence_cbs:
            return
        if self.scheduler.all_queues_empty() and self.engine.pending == 0:
            cbs, self._quiescence_cbs = self._quiescence_cbs, []
            for cb in cbs:
                cb()

    def run(self, until: Optional[float] = None) -> float:
        """Drain the simulation; returns the final virtual time."""
        return self.engine.run(until)
