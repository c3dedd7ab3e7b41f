"""One recorder, one fold: full tracing is the stats fold plus storage.

``GridEnvironment(trace=True)`` attaches a single
:class:`~repro.sim.trace.Tracer` — a :class:`TraceAggregator` that also
stores raw events — as both ``env.tracer`` and ``env.aggregator``.  A
traced run must therefore report exactly what the same run reports with
statistics only, its online WAN overlap fold must agree with the same
quantities recomputed from the stored events, and the stats-mode object
fold must keep its record buffer bounded however long the run.
"""

import math

import pytest

from repro.apps.leanmd import LeanMDApp
from repro.apps.stencil import StencilApp
from repro.grid.presets import artificial_latency_env, lossy_wan_env
from repro.obs.objview import ObjectView
from repro.obs.report import build_report, netview_section
from repro.sim import trace as trace_mod
from repro.units import ms


def _run(trace):
    env = artificial_latency_env(8, ms(8.0), trace=trace,
                                 routing="hierarchical", wan_streams=2)
    result = StencilApp(env, mesh=(256, 256), objects=32,
                        payload="modeled").run(4)
    return env, result


def test_full_and_stats_modes_agree():
    full, full_result = _run(trace=True)
    stats, stats_result = _run(trace=False)
    assert full.aggregator is full.tracer
    assert full.fabric.tracer is full.tracer   # no fanout in between
    assert stats.tracer is None
    assert list(full_result.step_times) == list(stats_result.step_times)
    assert build_report(full.aggregator).to_dict() == \
        build_report(stats.aggregator).to_dict()
    full_net = netview_section(full.tracer)
    stats_net = netview_section(stats.aggregator)
    assert full_net["lanes"] == stats_net["lanes"]
    assert full_net["links"] == stats_net["links"]
    assert full_net["top_messages"]           # stored hops only in full
    assert "top_messages" not in stats_net
    assert ObjectView.from_source(full.aggregator).to_dict() == \
        ObjectView.from_source(stats.aggregator).to_dict()


# -- online overlap fold vs the stored-event oracle --------------------------

def _stencil_clean():
    env = artificial_latency_env(8, ms(8.0), trace=True)
    StencilApp(env, mesh=(512, 512), objects=64, payload="modeled").run(6)
    return env


def _stencil_lossy():
    env = lossy_wan_env(8, ms(2.0), loss=0.05, duplication=0.02,
                        reordering=0.05, seed=0, trace=True)
    StencilApp(env, mesh=(64, 64), objects=16, payload="modeled").run(6)
    return env


def _leanmd_lossy():
    env = lossy_wan_env(8, ms(8.0), loss=0.05, duplication=0.05,
                        reordering=0.1, seed=1, trace=True)
    LeanMDApp(env, cells=(3, 3, 3), atoms_per_cell=8,
              payload="modeled").run(3)
    return env


@pytest.mark.parametrize("run, faulty", [
    (_stencil_clean, False), (_stencil_lossy, True), (_leanmd_lossy, True),
], ids=["stencil", "stencil-lossy", "leanmd-lossy"])
def test_online_overlap_fold_matches_stored_event_oracle(run, faulty):
    """The aggregator pairs WAN sends with deliveries by id as events
    arrive; ``wan_flight_windows`` + ``busy_during`` recompute the same
    windows and masked time from the stored events afterwards.  Under
    ARQ retransmits and wire duplicates both must still agree."""
    tracer = run().tracer
    windows = tracer.wan_flight_windows()
    assert tracer.wan.windows == len(windows) > 0
    assert tracer.wan.flight_time == pytest.approx(
        math.fsum(d - s for s, d, _src, _dst in windows), rel=1e-12)
    assert tracer.wan.masked_time == pytest.approx(
        math.fsum(tracer.busy_during(dst, s, d)
                  for s, d, _src, dst in windows), rel=1e-12)
    if faulty:
        assert tracer.retransmits > 0
        assert tracer.dups_suppressed > 0


# -- bounded object-fold buffer (default stats mode) -------------------------

def _long_stats_run(monkeypatch):
    """A >= 1e5-event stats-mode stencil run; returns (env, buffer peak)."""
    peak = [0]
    drain = trace_mod.ObjectFold._drain

    def watched(self):
        peak[0] = max(peak[0], len(self._buf))
        drain(self)

    monkeypatch.setattr(trace_mod.ObjectFold, "_drain", watched)
    env = artificial_latency_env(8, ms(8.0))
    StencilApp(env, mesh=(512, 512), objects=1024,
               payload="modeled").run(13)
    # The buffer only grows between drains, so its peak is seen either
    # just before a drain or at the end of the run.
    return env, max(peak[0], len(env.aggregator.objview._buf))


def test_object_buffer_bounded_and_drains_never_change_the_fold(
        monkeypatch):
    limit = trace_mod.OBJECT_BUFFER_LIMIT
    bounded, peak = _long_stats_run(monkeypatch)
    assert bounded.engine.events_processed >= 100_000
    assert 0 < peak <= limit
    monkeypatch.setattr(trace_mod, "OBJECT_BUFFER_LIMIT", float("inf"))
    unbounded, peak = _long_stats_run(monkeypatch)
    assert peak > limit          # this run really buffered to the end
    assert ObjectView.from_source(bounded.aggregator).to_dict() == \
        ObjectView.from_source(unbounded.aggregator).to_dict()


def test_object_fold_parks_no_ack_deliveries():
    """No execution consumes an ARQ ack, so an ack delivery must not
    leave a queue-wait entry behind: after the fold drains, only
    duplicate copies of data messages may still be pending."""
    env = lossy_wan_env(8, ms(8.0), loss=0.1, seed=0)
    StencilApp(env, mesh=(512, 512), objects=64,
               payload="modeled").run(16)
    fold = env.aggregator.objview
    assert fold.profiles
    rstats = env.transport.rstats
    assert rstats.acks_sent > rstats.dups_suppressed > 0
    assert len(fold._pending) <= rstats.dups_suppressed


# -- the metrics registry: one pull view in every obs mode -------------------

def test_registry_snapshot_same_in_every_obs_mode():
    runs = []
    for obs in ({"stats": False}, {}, {"trace": True}):
        env = artificial_latency_env(8, ms(8.0), routing="hierarchical",
                                     wan_streams=2, **obs)
        StencilApp(env, mesh=(256, 256), objects=32,
                   payload="modeled").run(4)
        runs.append((env, env.metrics.snapshot()))
    (_, off), (_, stats), (_, full) = runs
    assert set(off) == set(stats) == set(full)
    # The registry reads simulated state only, and no obs mode moves it.
    assert off == stats == full
    for env, snap in runs:
        # The keys the e2e benchmark's per-layer counters read: a missing
        # one would silently count as 0 there.
        for ps in env.runtime.scheduler.pes:
            assert snap[f"pe.{ps.pe}.executions"] == ps.stats.executions
            assert snap[f"pe.{ps.pe}.queue_hwm"] == ps.queue.high_water
        fabric = env.fabric.stats
        assert snap["fabric.messages_total"] == fabric.total_messages > 0
        assert snap["fabric.bytes_total"] == fabric.total_bytes
        wan = {k: v for k, v in snap.items()
               if k.startswith("fabric.wan") and k.endswith(".messages")}
        assert wan == {f"fabric.{name}.messages": n
                       for name, n in fabric.messages.items()
                       if name.startswith("wan")}
        assert sum(wan.values()) > 0
