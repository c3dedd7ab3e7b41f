"""Unit tests for the watchdog rules."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.health import (
    HealthConfig,
    HealthEvent,
    HealthMonitor,
    HealthSample,
)


def sample(t, executions=0, utils=None, idle=0.0, wan_sends=0,
           retransmits=0, queue_depth=0, wan_in_flight=0):
    return HealthSample(
        t=t, executions=executions,
        utilization=utils if utils is not None else {0: 1.0 - idle},
        idle_fraction=idle, queue_depth=queue_depth,
        wan_in_flight=wan_in_flight, wan_sends=wan_sends,
        retransmits=retransmits)


# -- HealthEvent -----------------------------------------------------------


def test_health_event_round_trip_and_render():
    ev = HealthEvent(t=0.25, severity="warning", rule="unmasking",
                     metric="idle.fraction_ema", value=0.5, threshold=0.33,
                     message="idle too high")
    d = ev.to_dict()
    assert d["rule"] == "unmasking" and d["t"] == 0.25
    assert "WARNING" in ev.render() and "unmasking" in ev.render()


def test_health_config_validation():
    with pytest.raises(ConfigurationError):
        HealthConfig(stall_factor=1.0)
    with pytest.raises(ConfigurationError):
        HealthConfig(storm_rate=0.0)
    with pytest.raises(ConfigurationError):
        HealthConfig(imbalance_ratio=0.5)
    with pytest.raises(ConfigurationError):
        HealthConfig(unmasked_idle_threshold=1.0)


def test_default_unmasking_threshold_matches_knee_tolerance():
    # 1.5x step-time tolerance <=> one third of the step is stall.
    assert HealthConfig().unmasked_idle_threshold == \
        pytest.approx(1.0 - 1.0 / 1.5)


# -- stall rule ------------------------------------------------------------


def test_stall_fires_after_factor_times_median_gap():
    mon = HealthMonitor(HealthConfig(stall_factor=4.0, stall_min_history=3))
    # Regular progress: one execution per 1 s sample.
    events = []
    for i in range(5):
        events += mon.observe(sample(float(i), executions=i))
    assert events == []
    # Now freeze progress; gap median is 1 s, so the rule arms at > 4 s.
    for i in range(5, 9):
        events += mon.observe(sample(float(i), executions=4))
    assert events == []
    events += mon.observe(sample(9.0, executions=4))  # stalled 5 s > 4 s
    assert [e.rule for e in events] == ["stall"]
    assert events[0].severity == "critical"


def test_stall_is_one_event_per_episode():
    mon = HealthMonitor(HealthConfig(stall_factor=4.0, stall_min_history=3))
    for i in range(5):
        mon.observe(sample(float(i), executions=i))
    fired = []
    for i in range(5, 20):
        fired += mon.observe(sample(float(i), executions=4))
    assert len(fired) == 1  # persists, but only the transition fires
    # Recovery, then a second stall -> a second event.
    for i in range(20, 26):
        mon.observe(sample(float(i), executions=i))
    fired2 = []
    for i in range(26, 40):
        fired2 += mon.observe(sample(float(i), executions=25))
    assert len(fired2) == 1


# -- retransmit-storm rule -------------------------------------------------


def test_storm_fires_on_windowed_rate():
    mon = HealthMonitor(HealthConfig(storm_rate=0.5,
                                     storm_min_retransmits=3))
    mon.observe(sample(0.0, wan_sends=10, retransmits=0))
    events = mon.observe(sample(1.0, wan_sends=15, retransmits=4))
    assert [e.rule for e in events] == ["retransmit-storm"]
    assert mon.last_retransmit_rate == pytest.approx(4 / 5)


def test_storm_needs_minimum_retransmits():
    mon = HealthMonitor(HealthConfig(storm_rate=0.5,
                                     storm_min_retransmits=3))
    mon.observe(sample(0.0, wan_sends=10, retransmits=0))
    # Rate 1.0 but only 2 retransmits in the window: noise, no alert.
    events = mon.observe(sample(1.0, wan_sends=12, retransmits=2))
    assert events == []


# -- load-imbalance rule ---------------------------------------------------


def test_imbalance_fires_past_warmup():
    cfg = HealthConfig(imbalance_ratio=2.0, warmup_samples=2)
    mon = HealthMonitor(cfg)
    skew = {0: 0.9, 1: 0.1, 2: 0.1, 3: 0.1}
    events = []
    for i in range(5):
        events += mon.observe(sample(float(i), executions=i, utils=skew))
    assert [e.rule for e in events] == ["load-imbalance"]


def test_imbalance_ignores_idle_system():
    cfg = HealthConfig(imbalance_ratio=2.0, warmup_samples=0,
                       imbalance_min_util=0.05)
    mon = HealthMonitor(cfg)
    near_zero = {0: 0.004, 1: 0.0001}  # huge ratio, tiny mean
    for i in range(5):
        assert mon.observe(sample(float(i), executions=i,
                                  utils=near_zero)) == []


# -- unmasking rule --------------------------------------------------------


def test_unmasking_fires_only_with_wan_traffic():
    cfg = HealthConfig(warmup_samples=1)
    mon = HealthMonitor(cfg)
    for i in range(4):
        assert mon.observe(
            sample(float(i), executions=i, idle=0.9, wan_sends=0)) == []
    events = mon.observe(sample(5.0, executions=5, idle=0.9, wan_sends=1))
    assert [e.rule for e in events] == ["unmasking"]


def test_unmasking_respects_warmup():
    cfg = HealthConfig(warmup_samples=5)
    mon = HealthMonitor(cfg)
    events = []
    for i in range(5):
        events += mon.observe(
            sample(float(i), executions=i, idle=0.9, wan_sends=10))
    assert events == []

