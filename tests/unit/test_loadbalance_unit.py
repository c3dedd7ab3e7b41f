"""Unit tests for load-balance metrics and strategies."""

import pytest

from repro.core.ids import ChareID
from repro.core.loadbalance import (
    GreedyLB,
    GridCommLB,
    LBDatabase,
    RotateLB,
    imbalance,
    pe_loads,
)
from repro.errors import LoadBalanceError
from repro.network.topology import GridTopology


def cid(i):
    return ChareID(0, (i,))


def make_db(loads, comm=()):
    """Build a database: loads = {i: seconds}, comm = [(i, j, wan)]."""
    db = LBDatabase()
    for i, load in loads.items():
        db.record_execution(cid(i), load)
    for i, j, wan in comm:
        db.record_send(cid(i), cid(j), 100, wan)
    return db


# -- metrics ------------------------------------------------------------------

def test_db_accumulates_load():
    db = make_db({0: 1.0})
    db.record_execution(cid(0), 2.0)
    assert db.load_of(cid(0)) == pytest.approx(3.0)
    assert db.load_of(cid(9)) == 0.0


def test_db_comm_records():
    db = make_db({}, [(0, 1, False), (0, 1, True)])
    rec = db.comm[(cid(0), cid(1))]
    assert rec.messages == 2
    assert rec.bytes == 200
    assert rec.wan_messages == 1


def test_db_driver_sends_ignored():
    db = LBDatabase()
    db.record_send(None, cid(1), 100, True)
    assert db.comm == {}


def test_db_wan_talkers_includes_both_ends():
    db = make_db({}, [(0, 1, True), (2, 3, False)])
    assert db.wan_talkers() == [cid(0), cid(1)]


def test_db_partners_aggregates_both_directions():
    db = make_db({}, [(0, 1, False), (1, 0, True)])
    partners = dict(db.partners_of(cid(0)))
    assert partners[cid(1)].messages == 2
    assert partners[cid(1)].wan_messages == 1


def test_db_reset():
    db = make_db({0: 1.0}, [(0, 1, True)])
    db.reset()
    assert db.total_load() == 0.0
    assert db.known_chares() == []


def test_pe_loads_and_imbalance():
    topo = GridTopology.single_cluster(2)
    db = make_db({0: 3.0, 1: 1.0})
    mapping = {cid(0): 0, cid(1): 1}
    loads = pe_loads(db, topo, mapping)
    assert loads == [3.0, 1.0]
    assert imbalance(loads) == pytest.approx(1.5)
    assert imbalance([0.0, 0.0]) == 0.0


def test_pe_loads_invalid_pe():
    topo = GridTopology.single_cluster(2)
    with pytest.raises(LoadBalanceError):
        pe_loads(make_db({0: 1.0}), topo, {cid(0): 5})


# -- GreedyLB ---------------------------------------------------------------------

def test_greedy_balances_perfectly_divisible():
    topo = GridTopology.single_cluster(2)
    db = make_db({0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0})
    mapping = {cid(i): 0 for i in range(4)}  # all piled on PE 0
    plan = GreedyLB().plan(db, topo, mapping)
    loads = [0.0, 0.0]
    for chare, pe in plan.items():
        loads[pe] += db.load_of(chare)
    assert loads == [5.0, 5.0]


def test_greedy_deterministic():
    topo = GridTopology.single_cluster(4)
    db = make_db({i: float(i % 3 + 1) for i in range(12)})
    mapping = {cid(i): i % 4 for i in range(12)}
    assert GreedyLB().plan(db, topo, mapping) == \
        GreedyLB().plan(db, topo, mapping)


# -- GridCommLB ----------------------------------------------------------------------

def grid_db_and_mapping(topo):
    """Four WAN talkers piled on PE 0, four local chares on PE 2."""
    db = LBDatabase()
    mapping = {}
    for i in range(4):
        db.record_execution(cid(i), 1.0)
        db.record_send(cid(i), cid(10 + i), 100, True)  # WAN traffic
        db.record_execution(cid(10 + i), 1.0)
        mapping[cid(i)] = 0           # cluster 0
        mapping[cid(10 + i)] = 2      # cluster 1
    return db, mapping


def test_gridlb_never_crosses_clusters():
    topo = GridTopology.two_cluster(4)
    db, mapping = grid_db_and_mapping(topo)
    plan = GridCommLB().plan(db, topo, mapping)
    for chare, new_pe in plan.items():
        assert topo.cluster_of(new_pe) == topo.cluster_of(mapping[chare])


def test_gridlb_spreads_wan_talkers_evenly():
    topo = GridTopology.two_cluster(4)
    db, mapping = grid_db_and_mapping(topo)
    plan = GridCommLB().plan(db, topo, mapping)
    cluster0_counts = {0: 0, 1: 0}
    for i in range(4):  # the cluster-0 WAN talkers
        cluster0_counts[plan[cid(i)]] += 1
    assert cluster0_counts == {0: 2, 1: 2}


def test_gridlb_balances_non_wan_load_within_cluster():
    topo = GridTopology.two_cluster(4)
    db = LBDatabase()
    mapping = {}
    for i in range(6):
        db.record_execution(cid(i), 1.0)
        mapping[cid(i)] = 0  # all on PE 0, no WAN traffic at all
    plan = GridCommLB().plan(db, topo, mapping)
    counts = {0: 0, 1: 0}
    for chare in mapping:
        counts[plan[chare]] += 1
    assert counts == {0: 3, 1: 3}


def test_gridlb_empty_db():
    topo = GridTopology.two_cluster(4)
    assert GridCommLB().plan(LBDatabase(), topo, {}) == {}


# -- RotateLB --------------------------------------------------------------------------

def test_rotate_shifts_by_one():
    topo = GridTopology.single_cluster(3)
    mapping = {cid(0): 0, cid(1): 2}
    plan = RotateLB().plan(LBDatabase(), topo, mapping)
    assert plan == {cid(0): 1, cid(1): 0}
