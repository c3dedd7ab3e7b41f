"""Hypothesis property tests on core data structures and invariants."""


import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ids import ChareID
from repro.core.mapping import BlockMapping, ClusterSplitMapping, RoundRobinMapping
from repro.core.method import payload_bytes
from repro.core.queue import MessageQueue
from repro.core.reduction import build_tree, combine, finalize, wrap_contribution
from repro.network.message import Message
from repro.network.topology import GridTopology
from repro.sim.engine import Engine

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


# -- engine: event ordering is exactly (time, post order) -----------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60))
@settings(**COMMON)
def test_engine_fires_in_stable_time_order(times):
    eng = Engine()
    fired = []
    for i, t in enumerate(times):
        eng.post(t, lambda i=i, t=t: fired.append((t, i)))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


# -- message queue: priority discipline -------------------------------------------

@given(st.lists(st.integers(min_value=-10, max_value=10),
                min_size=1, max_size=50))
@settings(**COMMON)
def test_priority_queue_is_stable_sort(priorities):
    q = MessageQueue(prioritized=True)
    for k, p in enumerate(priorities):
        q.push(Message(src_pe=0, dst_pe=0, size_bytes=0, priority=p,
                       tag=str(k)))
    out = [(m.priority, int(m.tag)) for m in q.drain()]
    assert out == sorted(out)


@given(st.lists(st.integers(min_value=-10, max_value=10),
                min_size=1, max_size=50))
@settings(**COMMON)
def test_fifo_queue_preserves_arrival_order(priorities):
    q = MessageQueue(prioritized=False)
    for k, p in enumerate(priorities):
        q.push(Message(src_pe=0, dst_pe=0, size_bytes=0, priority=p,
                       tag=str(k)))
    assert [int(m.tag) for m in q.drain()] == list(range(len(priorities)))


# -- reducers ------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=40))
@settings(**COMMON)
def test_sum_reduction_order_independent_for_ints(values):
    acc_fwd = None
    for v in values:
        acc_fwd = combine("sum", acc_fwd, v)
    acc_rev = None
    for v in reversed(values):
        acc_rev = combine("sum", acc_rev, v)
    assert acc_fwd == acc_rev == sum(values)


@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=40))
@settings(**COMMON)
def test_max_min_reductions_match_builtins(values):
    acc_max = acc_min = None
    for v in values:
        acc_max = combine("max", acc_max, v)
        acc_min = combine("min", acc_min, v)
    assert acc_max == max(values)
    assert acc_min == min(values)


@given(st.lists(st.tuples(st.integers(0, 99), st.integers()),
                min_size=1, max_size=30, unique_by=lambda t: t[0]))
@settings(**COMMON)
def test_concat_reduction_sorted_regardless_of_arrival(pairs):
    acc = None
    for idx, val in pairs:
        acc = combine("concat", acc,
                      wrap_contribution("concat", ChareID(0, (idx,)), val))
    out = finalize("concat", acc)
    assert out == sorted(((i,), v) for i, v in pairs)


# -- reduction tree over random hosting sets -------------------------------------------

@given(st.integers(min_value=1, max_value=32),
       st.data())
@settings(**COMMON)
def test_reduction_tree_wellformed_random(num_pes_half, data):
    topo = GridTopology.two_cluster(2 * num_pes_half)
    hosting = data.draw(st.lists(
        st.integers(0, 2 * num_pes_half - 1), min_size=1, max_size=40))
    tree = build_tree(hosting, topo)
    distinct = sorted(set(hosting))
    # every hosting PE reaches the root without cycles
    for pe in distinct:
        cur, hops = pe, 0
        while tree.parent.get(cur) is not None:
            cur = tree.parent[cur]
            hops += 1
            assert hops <= len(distinct)
        assert cur == tree.root
    # cross-cluster edges: at most one per extra cluster
    wan = sum(1 for pe, par in tree.parent.items()
              if par is not None and not topo.same_cluster(pe, par))
    clusters_present = len({topo.cluster_of(pe) for pe in distinct})
    assert wan == clusters_present - 1


# -- mappings ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=16))
@settings(**COMMON)
def test_block_mapping_total_and_balanced(n, num_pes_half):
    topo = GridTopology.two_cluster(2 * num_pes_half)
    indices = [(i,) for i in range(n)]
    table = BlockMapping().assign(indices, topo)
    assert sorted(table) == indices
    counts = {}
    for pe in table.values():
        assert 0 <= pe < topo.num_pes
        counts[pe] = counts.get(pe, 0) + 1
    assert max(counts.values()) - min(counts.values()) <= 1


@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=16))
@settings(**COMMON)
def test_roundrobin_mapping_total_and_balanced(n, num_pes_half):
    topo = GridTopology.two_cluster(2 * num_pes_half)
    table = RoundRobinMapping().assign([(i,) for i in range(n)], topo)
    counts = [0] * topo.num_pes
    for pe in table.values():
        counts[pe] += 1
    assert max(counts) - min(counts) <= 1


@given(st.integers(min_value=2, max_value=30))
@settings(**COMMON)
def test_cluster_split_never_leaks(n):
    topo = GridTopology.two_cluster(8)
    mapping = ClusterSplitMapping(lambda idx: idx[0] % 2)
    table = mapping.assign([(i,) for i in range(n)], topo)
    for (i,), pe in table.items():
        assert topo.cluster_of(pe) == i % 2


# -- payload size estimation -----------------------------------------------------------------

nested_payloads = st.recursive(
    st.one_of(st.none(), st.integers(), st.floats(allow_nan=False),
              st.text(max_size=20), st.booleans()),
    lambda children: st.lists(children, max_size=5),
    max_leaves=20)


@given(nested_payloads)
@settings(**COMMON)
def test_payload_bytes_nonnegative(obj):
    assert payload_bytes(obj) >= 0


@given(st.lists(st.integers(), max_size=10), st.integers())
@settings(**COMMON)
def test_payload_bytes_monotone_under_append(lst, extra):
    assert payload_bytes(lst + [extra]) >= payload_bytes(lst)


@given(st.integers(min_value=0, max_value=10000))
@settings(**COMMON)
def test_payload_bytes_numpy_exact(n):
    assert payload_bytes(np.zeros(n)) == n * 8
