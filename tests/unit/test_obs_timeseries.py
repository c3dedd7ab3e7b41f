"""Unit tests for the fixed-memory time series and the telemetry sampler."""

import pytest

from repro.apps.stencil import StencilApp
from repro.errors import ConfigurationError
from repro.grid.presets import artificial_latency_env
from repro.obs.timeseries import (
    SamplingPolicy,
    TimeSeries,
    render_sparkline,
)
from repro.units import ms


# -- TimeSeries ------------------------------------------------------------


def test_timeseries_records_points():
    ts = TimeSeries("x", capacity=8)
    for i in range(5):
        ts.add(float(i), float(i) * 2)
    assert len(ts) == 5
    assert ts.times() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert ts.values() == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert ts.last == 8.0
    assert ts.bucket_count == 1


def test_timeseries_downsamples_at_capacity():
    ts = TimeSeries("x", capacity=4)
    for i in range(4):
        ts.add(float(i), float(i))
    # Hit capacity: merged into 2 points, bucket_count doubled.
    assert len(ts) == 2
    assert ts.bucket_count == 2
    assert ts.points == [(0.5, 0.5), (2.5, 2.5)]


def test_timeseries_memory_is_bounded():
    ts = TimeSeries("x", capacity=16)
    for i in range(10_000):
        ts.add(float(i), 1.0)
    assert len(ts) < 16
    assert ts.samples == 10_000
    # bucket_count is a power of two covering samples/capacity.
    assert ts.bucket_count >= 10_000 // 16
    assert ts.bucket_count & (ts.bucket_count - 1) == 0


def test_timeseries_downsampling_preserves_mean():
    ts = TimeSeries("x", capacity=8)
    values = [float(i % 7) for i in range(64)]
    for i, v in enumerate(values):
        ts.add(float(i), v)
    # Every point averages bucket_count raw samples, so the overall mean
    # of retained points equals the mean of fully-covered raw samples.
    covered = len(ts) * ts.bucket_count
    expect = sum(values[:covered]) / covered
    got = sum(ts.values()) / len(ts)
    assert got == pytest.approx(expect)


def test_timeseries_partial_bucket_shows_in_last():
    ts = TimeSeries("x", capacity=4)
    for i in range(4):
        ts.add(float(i), 0.0)  # forces bucket_count -> 2
    ts.add(10.0, 8.0)  # partial bucket, not yet a point
    assert ts.last == 8.0


def test_timeseries_capacity_validation():
    with pytest.raises(ConfigurationError):
        TimeSeries("x", capacity=3)  # odd
    with pytest.raises(ConfigurationError):
        TimeSeries("x", capacity=0)


def test_sparkline_shape_and_flat_input():
    assert render_sparkline([]) == ""
    assert render_sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
    line = render_sparkline([float(i) for i in range(100)], width=20)
    assert len(line) == 20
    assert line[0] == "▁" and line[-1] == "█"


# -- SamplingPolicy --------------------------------------------------------


def test_sampling_policy_validation():
    with pytest.raises(ConfigurationError):
        SamplingPolicy(interval=0.0)
    with pytest.raises(ConfigurationError):
        SamplingPolicy(ema_alpha=0.0)


# -- TelemetrySampler on a real run ---------------------------------------


def test_sampler_records_core_series():
    env = artificial_latency_env(4, ms(2.0), sampling=True)
    app = StencilApp(env, mesh=(256, 256), objects=16, payload="modeled")
    app.run(4)
    names = set(env.sampler.series)
    for expected in ("util.mean_ema", "util.max_ema", "idle.fraction_ema",
                     "queue.depth", "wan.in_flight", "wan.retransmit_rate",
                     "wan.masked_fraction"):
        assert expected in names
    assert {f"pe.{i}.util_ema" for i in range(4)} <= names
    assert env.sampler.ticks > 0
    for s in env.sampler.series.values():
        assert len(s) <= s.capacity


def test_sampler_does_not_change_virtual_results():
    def run(**kwargs):
        env = artificial_latency_env(4, ms(2.0), **kwargs)
        app = StencilApp(env, mesh=(256, 256), objects=16,
                         payload="modeled")
        return app.run(4)

    bare = run()
    sampled = run(sampling=SamplingPolicy(interval=0.5e-3))
    assert sampled.time_per_step == bare.time_per_step
    assert list(sampled.step_times) == list(bare.step_times)


def test_sampler_masked_fraction_matches_aggregator():
    env = artificial_latency_env(4, ms(2.0), sampling=True)
    app = StencilApp(env, mesh=(256, 256), objects=16, payload="modeled")
    app.run(4)
    series = env.sampler.series["wan.masked_fraction"]
    assert series.values()[-1] == pytest.approx(
        env.aggregator.masked_latency_fraction, abs=0.05)


def test_sampler_summary_is_json_friendly():
    import json

    summaries = []
    for _ in range(2):
        env = artificial_latency_env(4, ms(2.0), health=True)
        app = StencilApp(env, mesh=(256, 256), objects=16,
                         payload="modeled")
        app.run(4)
        summaries.append(env.sampler.summary())
    summary = summaries[0]
    json.dumps(summary)  # must not raise
    assert summary["ticks"] == env.sampler.ticks
    assert "util.mean_ema" in summary["series"]
    # Every reported value comes from the simulated run: a same-seed
    # environment reports the same summary (no wall-clock field).
    assert summaries[1] == summary


def test_sampler_stop_halts_sampling():
    env = artificial_latency_env(4, ms(2.0), sampling=True)
    app = StencilApp(env, mesh=(256, 256), objects=16, payload="modeled")
    env.sampler.stop()
    app.run(4)
    assert env.sampler.ticks == 0
