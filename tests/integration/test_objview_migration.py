"""Object identity in the object view must survive migration.

The fold keys profiles by ``str(ChareID)`` — a location-independent
label — so when the load balancer moves a chare mid-run, new samples
must keep accumulating in the *same* profile (follow the object, not
the PE it happened to be on).
"""

import pytest

from repro.core.chare import Chare
from repro.core.ids import ChareID
from repro.core.loadbalance import GreedyLB, RotateLB
from repro.core.mapping import RoundRobinMapping
from repro.core.method import entry
from repro.grid.presets import artificial_latency_env, single_cluster_env
from repro.obs.objview import ObjectView
from repro.units import ms

N = 8
WORK_S = 0.001


class Worker(Chare):
    def __init__(self):
        super().__init__()
        self.inbox = []

    @entry
    def work(self, cost):
        self.charge(cost)

    @entry
    def take(self, value):
        self.inbox.append(value)


def build(env, n=N, mapping=None):
    rts = env.runtime
    arr = rts.create_array(Worker, range(n),
                           mapping or RoundRobinMapping())
    return rts, arr


def snapshot(env):
    """Per-object (executions, compute_s) from the streaming fold."""
    fold = env.aggregator.objview
    return {obj: (p.executions, p.compute_s)
            for obj, p in fold.profiles.items()}


def round_of_work(env, rts, arr):
    arr.work(WORK_S)
    for i in range(N // 2):
        arr[i].take("ping")        # labelled cross-object traffic
    env.run()


def object_pes(rts, arr):
    return {str(ChareID(arr.collection, idx)):
            rts.pe_of(ChareID(arr.collection, idx))
            for idx in arr.indices()}


def test_profiles_follow_object_across_rotate_lb():
    env = artificial_latency_env(4, ms(2), trace=True)
    rts, arr = build(env)
    round_of_work(env, rts, arr)
    before = snapshot(env)
    pes_before = object_pes(rts, arr)
    labels = set(object_pes(rts, arr))
    # Every worker label is tracked and keyed location-independently.
    assert labels <= set(before)

    applied = rts.load_balance(RotateLB())
    env.run()
    assert len(applied) == N
    round_of_work(env, rts, arr)

    pes_after = object_pes(rts, arr)
    for obj in labels:
        assert pes_after[obj] == (pes_before[obj] + 1) % 4  # it moved
    after = snapshot(env)
    # No profile was re-keyed by the move: the label set only ever
    # grows by labels, never forks a per-PE alias.
    assert set(after) == set(before)
    for obj in labels:
        execs0, compute0 = before[obj]
        execs1, compute1 = after[obj]
        # The second round's samples landed in the SAME profile, even
        # though the chare now lives on a different PE.
        assert execs1 > execs0
        assert compute1 > compute0


def test_exactly_one_more_execution_per_object_after_rotate():
    """The post-migration round adds its executions to the old keys."""
    env = artificial_latency_env(4, ms(2), trace=True)
    rts, arr = build(env)
    arr.work(WORK_S)
    env.run()
    before = snapshot(env)

    rts.load_balance(RotateLB())
    env.run()
    mid = snapshot(env)
    # Migration itself executes no labelled entry methods.
    assert {o: v[0] for o, v in mid.items()} == \
        {o: v[0] for o, v in before.items()}

    arr.work(WORK_S)
    env.run()
    after = snapshot(env)
    assert set(after) == set(before)
    grain = WORK_S + env.runtime.config.scheduler_overhead
    for obj, (execs0, compute0) in before.items():
        execs1, compute1 = after[obj]
        assert execs1 == execs0 + 1
        assert compute1 - compute0 == pytest.approx(grain, rel=1e-9)


def test_profiles_follow_object_across_greedy_lb():
    env = single_cluster_env(4, trace=True)
    # Everything starts on PE 0; GreedyLB must spread the measured load.
    rts, arr = build(env, mapping={(i,): 0 for i in range(N)})
    arr.work(WORK_S)
    env.run()
    before = snapshot(env)

    rts.load_balance(GreedyLB())
    env.run()
    pes = set(object_pes(rts, arr).values())
    assert pes == {0, 1, 2, 3}

    arr.work(WORK_S)
    env.run()
    after = snapshot(env)
    assert set(after) == set(before)
    for obj, (execs0, _c0) in before.items():
        assert after[obj][0] == execs0 + 1


def test_object_view_render_after_migration():
    """The rendered view keeps one row per object after the shakeout."""
    env = artificial_latency_env(4, ms(2), trace=True)
    rts, arr = build(env)
    round_of_work(env, rts, arr)
    rts.load_balance(RotateLB())
    env.run()
    round_of_work(env, rts, arr)
    view = ObjectView.from_source(env.aggregator)
    text = view.render(top=2 * N)
    labels = set(object_pes(rts, arr))
    for obj in labels:
        assert text.count(f"{obj} ") >= 1
    assert view.totals()["objects"] >= N
