"""Integration tests: chare creation, sends, broadcasts, sections."""

import pytest

from repro.core.chare import Chare
from repro.core.ids import ChareID
from repro.core.mapping import RoundRobinMapping
from repro.core.method import entry
from repro.core.records import Invocation
from repro.core.rts import RuntimeConfig
from repro.errors import (
    ConfigurationError,
    EntryMethodError,
    RuntimeSystemError,
    UnknownChareError,
)
from repro.grid.presets import artificial_latency_env, single_cluster_env
from repro.network.message import Message
from repro.units import ms

from tests.conftest import make_recorder


class Counter(Chare):
    def __init__(self, start=0):
        super().__init__()
        self.value = start
        self.seen_times = []

    @entry
    def add(self, n):
        self.value += n
        self.seen_times.append(self.now)

    @entry
    def add_with_cost(self, n, cost):
        self.value += n
        self.charge(cost)

    @entry(cost=lambda self, n: n * 1e-3)
    def add_static_cost(self, n):
        self.value += n


def all_objects(rts, proxy):
    return [rts.chare_object(ChareID(proxy.collection, idx))
            for idx in proxy.indices()]


def test_create_singleton_and_send(env4):
    rts = env4.runtime
    proxy = rts.create_chare(Counter, pe=2, args=(10,))
    proxy.add(5)
    env4.run()
    assert rts.chare_object(proxy.chare_id).value == 15


def test_send_charges_network_time(env4):
    rts = env4.runtime
    # PE 0 and PE 3 are in different clusters: 2 ms delay device applies.
    proxy = rts.create_chare(Counter, pe=3)
    proxy.add(1)
    env4.run()
    obj = rts.chare_object(proxy.chare_id)
    assert obj.seen_times[0] >= ms(2)


def test_local_send_is_fast(env4):
    rts = env4.runtime
    proxy = rts.create_chare(Counter, pe=0)
    proxy.add(1)
    env4.run()
    assert rts.chare_object(proxy.chare_id).seen_times[0] < ms(0.1)


def test_create_array_with_args_of(env4):
    rts = env4.runtime
    arr = rts.create_array(Counter, range(6), RoundRobinMapping(),
                           args_of=lambda idx: ((idx[0] * 100,), {}))
    env4.run()
    values = [o.value for o in all_objects(rts, arr)]
    assert values == [0, 100, 200, 300, 400, 500]


def test_array_element_send(env4):
    rts = env4.runtime
    arr = rts.create_array(Counter, range(4), RoundRobinMapping())
    arr[2].add(7)
    arr[(3,)].add(9)
    env4.run()
    values = [o.value for o in all_objects(rts, arr)]
    assert values == [0, 0, 7, 9]


def test_broadcast_reaches_all(env4):
    rts = env4.runtime
    arr = rts.create_array(Counter, range(8), RoundRobinMapping())
    arr.add(3)
    env4.run()
    assert all(o.value == 3 for o in all_objects(rts, arr))


def test_section_multicast_reaches_subset(env4):
    rts = env4.runtime
    arr = rts.create_array(Counter, range(8), RoundRobinMapping())
    arr.section([1, 3, 5]).add(2)
    env4.run()
    values = [o.value for o in all_objects(rts, arr)]
    assert values == [0, 2, 0, 2, 0, 2, 0, 0]


def test_charge_extends_busy_time(env4):
    rts = env4.runtime
    proxy = rts.create_chare(Counter, pe=0)
    proxy.add_with_cost(1, 0.5)
    proxy.add(1)  # same PE: must wait for the 0.5 s execution
    env4.run()
    obj = rts.chare_object(proxy.chare_id)
    assert obj.seen_times[0] >= 0.5


def test_static_entry_cost(env4):
    rts = env4.runtime
    proxy = rts.create_chare(Counter, pe=0)
    proxy.add_static_cost(4)       # 4 ms static cost
    proxy.add(1)
    env4.run()
    obj = rts.chare_object(proxy.chare_id)
    assert obj.seen_times[-1] >= ms(4)


def test_sends_depart_at_execution_end(env4):
    """Run-to-completion: messages sent mid-entry leave when it ends."""
    rts = env4.runtime

    class Chain(Chare):
        def __init__(self, out=None):
            super().__init__()
            self.out = out
            self.hit_at = None

        @entry
        def fire(self):
            if self.out is not None:
                self.out.ping()
            self.charge(0.25)

        @entry
        def ping(self):
            self.hit_at = self.now

    sink = rts.create_chare(Chain, pe=0)
    src = rts.create_chare(Chain, pe=0, args=(sink,))
    src.fire()
    env4.run()
    assert rts.chare_object(sink.chare_id).hit_at >= 0.25


def test_unknown_entry_method_raises(env4):
    rts = env4.runtime
    proxy = rts.create_chare(Counter, pe=0)
    proxy.no_such_entry()
    with pytest.raises(EntryMethodError):
        env4.run()


def test_undecorated_method_rejected(env4):
    class Sneaky(Chare):
        def plain(self):
            pass

    rts = env4.runtime
    proxy = rts.create_chare(Sneaky, pe=0)
    proxy.plain()
    with pytest.raises(EntryMethodError):
        env4.run()


def test_unknown_chare_rejected(env4):
    rts = env4.runtime
    with pytest.raises(UnknownChareError):
        rts.pe_of(ChareID(99, (0,)))
    # The send path reads the location map directly; a miss still
    # raises the accessor's error, for the collection and the index.
    proxy = rts.create_array(Counter, [0, 1], RoundRobinMapping())
    cid = proxy[0].chare_id.collection
    with pytest.raises(UnknownChareError, match="unknown collection c99"):
        rts.send(ChareID(99, (0,)), "add", (1,), {})
    with pytest.raises(UnknownChareError, match="unknown chare"):
        rts.send(ChareID(cid, (7,)), "add", (1,), {})
    # So does the scheduler, for a message that reached an idle PE.
    with pytest.raises(UnknownChareError, match="unknown chare"):
        rts.scheduler.deliver(Message(
            src_pe=0, dst_pe=1, size_bytes=0,
            payload=Invocation(ChareID(cid, (7,)), "add", (1,), {})))


def test_duplicate_indices_rejected(env4):
    with pytest.raises(ConfigurationError):
        env4.runtime.create_array(Counter, [0, 0], RoundRobinMapping())


def test_empty_array_rejected(env4):
    with pytest.raises(ConfigurationError):
        env4.runtime.create_array(Counter, [], RoundRobinMapping())


def test_bad_pe_rejected(env4):
    with pytest.raises(ConfigurationError):
        env4.runtime.create_chare(Counter, pe=99)


def test_charge_outside_entry_rejected(env4):
    rts = env4.runtime
    proxy = rts.create_chare(Counter, pe=0)
    obj = rts.chare_object(proxy.chare_id)
    with pytest.raises(RuntimeSystemError):
        obj.charge(1.0)


def test_unbound_chare_helpers_rejected():
    class Orphan(Chare):
        pass

    orphan = Orphan()
    with pytest.raises(RuntimeSystemError):
        _ = orphan.chare_id


def test_quiescence_callback_fires_once(env4):
    rts = env4.runtime
    proxy = rts.create_chare(Counter, pe=1)
    fired = []
    rts.on_quiescence(lambda: fired.append(rts.now))
    proxy.add(1)
    proxy.add(2)
    env4.run()
    assert len(fired) == 1
    assert rts.chare_object(proxy.chare_id).value == 3


def test_expedite_wan_priority_config():
    env = artificial_latency_env(
        4, ms(2), config=RuntimeConfig(prioritized_queues=True,
                                       expedite_wan=True))
    proxy, obj = make_recorder(env, pe=3)
    proxy.note("x")
    env.run()
    assert len(obj.calls) == 1


def test_expedite_wan_requires_priorities():
    with pytest.raises(ConfigurationError):
        RuntimeConfig(expedite_wan=True, prioritized_queues=False)


def test_runtime_rejects_foreign_engine():
    from repro.core.rts import Runtime
    from repro.sim.engine import Engine

    env = single_cluster_env(2)
    with pytest.raises(ConfigurationError):
        Runtime(Engine(), env.fabric)


def test_this_proxy_and_index(env4):
    rts = env4.runtime

    class Introspect(Chare):
        def __init__(self):
            super().__init__()
            self.seen = None

        @entry
        def look(self):
            self.seen = (self.thisIndex, self.my_pe)

    arr = rts.create_array(Introspect, [(0, 1)], {(0, 1): 2})
    arr[(0, 1)].look()
    env4.run()
    obj = rts.chare_object(ChareID(arr.collection, (0, 1)))
    assert obj.seen == ((0, 1), 2)
