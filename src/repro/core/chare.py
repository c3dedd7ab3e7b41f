"""The :class:`Chare` base class.

A chare is a message-driven object: it owns private state and a set of
entry methods (declared with :func:`repro.core.method.entry`) that run in
response to asynchronous messages.  Exactly one entry method of one chare
executes on a given PE at a time, to completion — the Charm++ execution
model the paper relies on for latency masking (§4).

Application chares interact with the runtime through the protected
helpers defined here:

``self.charge(seconds)``
    add virtual compute time to the current entry execution;
``self.thisProxy`` / ``self.thisIndex``
    address yourself or your collection;
``self.contribute(value, op, target)``
    participate in a reduction over your chare array;
``self.migrate(pe)``
    request migration at the end of the current entry method.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.core.ids import ChareID
from repro.errors import RuntimeSystemError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rts import Runtime
    from repro.core.proxy import ArrayProxy, ChareProxy


class Chare:
    """Base class for all message-driven objects.

    Subclasses must call ``super().__init__()`` before using any runtime
    helper.  Constructor arguments flow from
    :meth:`repro.core.rts.Runtime.create_chare` /
    :meth:`~repro.core.rts.Runtime.create_array`.
    """

    def __init__(self) -> None:
        self._rts: Optional["Runtime"] = None
        self._id: Optional[ChareID] = None

    # -- wiring (called by the runtime, not applications) ------------------

    def _bind(self, rts: "Runtime", cid: ChareID) -> None:
        self._rts = rts
        self._id = cid

    def _require_rts(self) -> "Runtime":
        if self._rts is None or self._id is None:
            raise RuntimeSystemError(
                f"{type(self).__name__} used before registration with a "
                "Runtime (did you forget super().__init__()?)")
        return self._rts

    # -- identity -----------------------------------------------------------

    @property
    def chare_id(self) -> ChareID:
        """This chare's global address."""
        self._require_rts()
        assert self._id is not None
        return self._id

    @property
    def thisIndex(self) -> tuple:
        """Index within the owning collection (Charm++ spelling)."""
        return self.chare_id.index

    @property
    def thisProxy(self) -> "ArrayProxy":
        """Proxy to the *collection* this chare belongs to."""
        return self._require_rts().collection_proxy(self.chare_id.collection)

    @property
    def self_proxy(self) -> "ChareProxy":
        """Proxy to this very element."""
        return self.thisProxy.elem(self.chare_id.index)

    @property
    def my_pe(self) -> int:
        """The PE currently hosting this chare."""
        return self._require_rts().pe_of(self.chare_id)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._require_rts().now

    # -- execution-time helpers ----------------------------------------------

    def charge(self, seconds: float) -> None:
        """Add *seconds* of virtual compute time to the running entry.

        This is how applications express "this method did S seconds of
        real work" to the simulator; the PE stays busy for the charged
        time and messages sent by the method depart when it finishes.
        """
        rts = self._rts
        if rts is None:
            rts = self._require_rts()
        rts.charge(seconds)

    def contribute(self, value: Any, op: str, target) -> None:
        """Contribute *value* to the current reduction over the collection.

        Parameters
        ----------
        value:
            This element's contribution.
        op:
            Reducer name: ``"sum"``, ``"max"``, ``"min"``, ``"concat"``
            or ``"nop"``.
        target:
            Where the reduced value goes: an :class:`EntryRef`, a
            ``(proxy_element, "entry_name")`` pair, or a plain Python
            callable (driver callback, runs on the root PE at the
            reduction's completion time).
        """
        self._require_rts().contribute(self.chare_id, value, op, target)

    def migrate(self, new_pe: int) -> None:
        """Request migration to *new_pe* once the current entry finishes."""
        self._require_rts().request_migration(self.chare_id, new_pe)

    # -- migration support -----------------------------------------------------

    def pack_size(self) -> int:
        """Bytes this chare occupies on the wire when migrating.

        Subclasses carrying big state (mesh blocks, atom arrays) should
        override so migration costs scale with reality.
        """
        return 256

    def on_migrated(self, old_pe: int, new_pe: int) -> None:
        """Hook invoked (on the new PE, at arrival time) after migration."""

    # -- debug -------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ident = self._id if self._id is not None else "<unbound>"
        return f"<{type(self).__name__} {ident}>"


class MainChare(Chare):
    """Convenience base for driver/main chares (singletons on PE 0).

    Nothing distinguishes a main chare mechanically; the subclass exists
    to make application structure explicit, mirroring Charm++'s
    ``mainchare`` declaration.
    """
