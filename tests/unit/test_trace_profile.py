"""Tests for the Projections-style entry-method profile."""

import pytest

from repro.sim.trace import EntryProfile, Tracer


def traced():
    tr = Tracer()
    for start, end, entry in [(0.0, 1.0, "ghost"), (1.0, 3.0, "compute"),
                              (3.0, 3.5, "ghost")]:
        tr.begin_execute(0, start, "Block", entry)
        tr.end_execute(0, end)
    return tr


def test_profile_aggregates_by_entry():
    profs = traced().profile_by_entry()
    ghost = profs[("Block", "ghost")]
    assert ghost.calls == 2
    assert ghost.total_time == pytest.approx(1.5)
    assert ghost.mean_time == pytest.approx(0.75)
    assert profs[("Block", "compute")].total_time == pytest.approx(2.0)


def test_profile_mean_of_empty():
    assert EntryProfile("C", "e").mean_time == 0.0


def test_profile_from_live_run():
    from repro.apps.stencil import StencilApp
    from repro.grid.presets import artificial_latency_env
    from repro.units import ms

    env = artificial_latency_env(4, ms(2), trace=True)
    StencilApp(env, mesh=(64, 64), objects=16, payload="modeled").run(5)
    profs = env.tracer.profile_by_entry()
    assert ("StencilBlock", "ghost") in profs
    assert ("StencilBlock", "start") in profs
    assert profs[("StencilBlock", "start")].calls == 16
