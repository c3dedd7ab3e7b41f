"""Property-based tests for the watchdog.

The acceptance bar: the watchdog fires if and *only if* its condition
holds (episode semantics — one event per False -> True transition).

All tests carry the ``watchdog`` marker so CI can select them with
``-m watchdog``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.health import (
    HealthConfig,
    HealthMonitor,
    HealthSample,
)

pytestmark = pytest.mark.watchdog

COMMON = dict(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow])


def mk_sample(i, *, idle=0.0, wan_sends=0, retransmits=0, executions=None):
    return HealthSample(
        t=float(i), executions=executions if executions is not None else i,
        utilization={0: 1.0 - idle}, idle_fraction=idle,
        queue_depth=0, wan_in_flight=0, wan_sends=wan_sends,
        retransmits=retransmits)


# -- unmasking: fires iff idle crosses the threshold -----------------------


@given(idles=st.lists(st.floats(min_value=0.0, max_value=1.0,
                                allow_nan=False), min_size=1, max_size=40),
       warmup=st.integers(min_value=0, max_value=6),
       wan=st.lists(st.booleans(), min_size=40, max_size=40))
@settings(**COMMON)
def test_unmasking_fires_iff_condition_transitions(idles, warmup, wan):
    cfg = HealthConfig(warmup_samples=warmup)
    mon = HealthMonitor(cfg)
    # Independently recompute the pure rule: the episode state only
    # advances when the rule actually evaluates (past warmup, with WAN
    # traffic); otherwise it is frozen.
    was = False
    for i, idle in enumerate(idles):
        sends = 10 if wan[i] else 0
        fired = [e for e in mon.observe(mk_sample(i, idle=idle,
                                                  wan_sends=sends))
                 if e.rule == "unmasking"]
        if (i + 1) <= warmup or sends == 0:
            expect = False
        else:
            cond = idle > cfg.unmasked_idle_threshold
            expect = cond and not was
            was = cond
        assert len(fired) == (1 if expect else 0)
        if fired:
            assert fired[0].value == idle


# -- retransmit storm: fires iff the windowed rate crosses -----------------


@given(deltas=st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                                 st.integers(min_value=0, max_value=20)),
                       min_size=1, max_size=40))
@settings(**COMMON)
def test_storm_fires_iff_windowed_rate_crosses(deltas):
    cfg = HealthConfig(storm_rate=0.5, storm_min_retransmits=3)
    mon = HealthMonitor(cfg)
    sends = retx = 0
    was = False
    for i, (d_sent, d_retx) in enumerate(deltas):
        d_retx = min(d_retx, d_sent)  # can't retransmit more than sent
        sends += d_sent
        retx += d_retx
        fired = [e for e in mon.observe(mk_sample(i, wan_sends=sends,
                                                  retransmits=retx))
                 if e.rule == "retransmit-storm"]
        rate = d_retx / d_sent if d_sent > 0 else 0.0
        cond = d_retx >= cfg.storm_min_retransmits and rate > cfg.storm_rate
        expect = cond and not was
        was = cond
        assert len(fired) == (1 if expect else 0)
        assert mon.last_retransmit_rate == pytest.approx(rate)


# -- episode semantics hold for every rule ---------------------------------


@given(idles=st.lists(st.sampled_from([0.05, 0.9]), min_size=5,
                      max_size=60))
@settings(**COMMON)
def test_no_rule_double_fires_within_an_episode(idles):
    mon = HealthMonitor(HealthConfig(warmup_samples=0))
    history = []
    for i, idle in enumerate(idles):
        events = mon.observe(mk_sample(i, idle=idle, wan_sends=10))
        history.append((idle > mon.config.unmasked_idle_threshold,
                        sum(1 for e in events if e.rule == "unmasking")))
    # Between any two unmasking events the condition must have dropped.
    last_fire = None
    for i, (cond, n) in enumerate(history):
        assert n <= 1
        if n == 1:
            if last_fire is not None:
                assert any(not c for c, _ in history[last_fire + 1:i])
            last_fire = i

