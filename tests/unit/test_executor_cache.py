"""Unit tests for the sweep executor and the content-addressed run cache.

All specs here use a tiny mesh (64x64) and few steps so each run takes
milliseconds; the executor semantics under test — ordering, cache
round-trips, failure isolation — are size-independent.
"""

import json
import os

from repro.bench.cache import RunCache, spec_key
from repro.bench.executor import (
    JOBS_ENV,
    SweepStats,
    default_jobs,
    run_sweep,
)
from repro.bench.specs import RunSpec

import pytest


def tiny_spec(**overrides):
    base = dict(kind="stencil", experiment="test", pes=2, objects=4,
                latency_ms=0.0, steps=2, mesh=(64, 64))
    base.update(overrides)
    return RunSpec(**base)


def tiny_specs():
    return [tiny_spec(latency_ms=lat) for lat in (0.0, 2.0, 4.0)]


# -- spec keys ---------------------------------------------------------------


def test_spec_key_is_stable():
    assert spec_key(tiny_spec()) == spec_key(tiny_spec())


def test_spec_key_changes_with_config():
    keys = {spec_key(tiny_spec()),
            spec_key(tiny_spec(latency_ms=1.0)),
            spec_key(tiny_spec(steps=3)),
            spec_key(tiny_spec(seed=1, environment="teragrid")),
            spec_key(tiny_spec(objects=16))}
    assert len(keys) == 5


def test_spec_key_changes_with_version():
    assert spec_key(tiny_spec(), version="0.0.1") != \
        spec_key(tiny_spec(), version="0.0.2")


def test_spec_key_ignores_irrelevant_fields():
    # A stencil spec's key must not depend on the LeanMD-only fields.
    assert spec_key(tiny_spec()) == spec_key(tiny_spec(cells=(9, 9, 9)))


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        tiny_spec(kind="fluid")


def test_classic_kind_keys_unchanged_by_routing_defaults():
    # Pre-existing stencil/leanmd cache keys (and the committed
    # trajectory digests) must survive the routing knobs: default
    # routing/wan_streams stay out of a classic kind's config dict.
    config = tiny_spec().config()
    assert "routing" not in config
    assert "wan_streams" not in config
    assert "payload_bytes" not in config


def test_classic_kind_keys_change_with_non_default_routing():
    keys = {spec_key(tiny_spec()),
            spec_key(tiny_spec(routing="hierarchical")),
            spec_key(tiny_spec(routing="hierarchical", wan_streams=4))}
    assert len(keys) == 3


def test_collectives_spec_key_varies_by_variant():
    def coll(**overrides):
        base = dict(kind="collectives", experiment="fig3c", pes=8,
                    objects=64, latency_ms=8.0, steps=4)
        base.update(overrides)
        return RunSpec(**base)

    keys = {spec_key(coll()),
            spec_key(coll(routing="hierarchical")),
            spec_key(coll(routing="hierarchical", wan_streams=4)),
            spec_key(coll(payload_bytes=1024))}
    assert len(keys) == 4
    config = coll().config()
    assert config["routing"] == "flat"
    assert config["wan_streams"] == 0


def test_classic_kind_keys_unchanged_by_pdes_defaults():
    # Same stability contract for the kernel knob: numpy kernels are the
    # default, so they stay out of every pre-existing spec's key material
    # (the literal pins every RunCache key and trajectory digest).
    assert tiny_spec().config() == {
        "kind": "stencil", "experiment": "test", "pes": 2,
        "latency_ms": 0.0, "steps": 2, "environment": "artificial",
        "seed": 0, "payload": "modeled", "objects": 4, "mesh": [64, 64]}
    assert spec_key(tiny_spec()) == spec_key(tiny_spec(kernel="numpy"))


def test_spec_key_changes_with_non_default_pdes_knobs():
    assert spec_key(tiny_spec()) != spec_key(tiny_spec(kernel="percell"))
    assert tiny_spec(kernel="percell").config()["kernel"] == "percell"


def test_pdes_knobs_are_stencil_only():
    with pytest.raises(ValueError):
        tiny_spec(kind="collectives", kernel="percell")


# -- cache -------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    cache = RunCache(str(tmp_path / "cache"))
    spec = tiny_spec()
    assert cache.get(spec) is None
    point = spec.run()
    cache.put(spec, point)
    assert cache.get(spec) == point
    assert cache.stats() == {"hits": 1, "misses": 1, "puts": 1,
                             "root": str(tmp_path / "cache")}


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = RunCache(str(tmp_path / "cache"))
    spec = tiny_spec()
    cache.put(spec, spec.run())
    path = cache._path(spec_key(spec, cache.version))
    with open(path, "w") as fh:
        fh.write("{not json")
    assert cache.get(spec) is None


def test_cache_version_bump_invalidates(tmp_path):
    root = str(tmp_path / "cache")
    old = RunCache(root, version="0.1.0")
    spec = tiny_spec()
    old.put(spec, spec.run())
    assert old.get(spec) is not None
    new = RunCache(root, version="0.2.0")
    assert new.get(spec) is None   # same config, new code version


def test_cache_entry_is_readable_json(tmp_path):
    cache = RunCache(str(tmp_path / "cache"))
    spec = tiny_spec()
    cache.put(spec, spec.run())
    path = cache._path(spec_key(spec, cache.version))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["config"] == spec.config()
    assert doc["point"]["time_per_step"] > 0


# -- executor ----------------------------------------------------------------


def test_run_sweep_preserves_spec_order():
    specs = tiny_specs()
    points = run_sweep(specs)
    assert [p.latency_ms for p in points] == [s.latency_ms for s in specs]


def test_run_sweep_parallel_matches_serial():
    specs = tiny_specs()
    assert run_sweep(specs, jobs=1) == run_sweep(specs, jobs=2)


def test_run_sweep_stats_counts(tmp_path):
    cache = RunCache(str(tmp_path / "cache"))
    specs = tiny_specs()
    first = SweepStats()
    run_sweep(specs, cache=cache, stats=first)
    assert (first.total, first.cache_hits, first.executed) == (3, 0, 3)
    assert first.errors == 0

    second = SweepStats()
    cached = run_sweep(specs, cache=cache, stats=second)
    assert (second.total, second.cache_hits, second.executed) == (3, 3, 0)
    assert second.cache_fraction == 1.0
    assert cached == run_sweep(specs)   # cache serves identical rows

    d = second.to_dict()
    assert d["cache_fraction"] == 1.0 and d["total"] == 3


def test_failed_spec_yields_error_row_and_siblings_complete():
    specs = [tiny_spec(latency_ms=0.0),
             tiny_spec(latency_ms=2.0, environment="bogus"),
             tiny_spec(latency_ms=4.0)]
    stats = SweepStats()
    points = run_sweep(specs, stats=stats)
    assert len(points) == 3
    assert points[0].time_per_step > 0 and points[2].time_per_step > 0
    assert points[1].time_per_step == float("inf")
    assert "bogus" in points[1].extra["error"]
    assert stats.errors == 1 and stats.error_labels


def test_failed_spec_in_worker_process_is_isolated():
    # Same failure through the ProcessPoolExecutor path: the bad config
    # produces an error row, its siblings complete on the pool.
    specs = [tiny_spec(latency_ms=0.0),
             tiny_spec(latency_ms=2.0, environment="bogus"),
             tiny_spec(latency_ms=4.0)]
    stats = SweepStats()
    points = run_sweep(specs, jobs=2, stats=stats)
    assert [p.time_per_step == float("inf") for p in points] == \
        [False, True, False]
    assert stats.errors == 1


def test_error_rows_are_never_cached(tmp_path):
    cache = RunCache(str(tmp_path / "cache"))
    bad = tiny_spec(environment="bogus")
    run_sweep([bad], cache=cache)
    assert cache.puts == 0
    assert cache.get(bad) is None   # a later fixed run re-executes


def test_progress_lines_cover_every_spec(tmp_path):
    cache = RunCache(str(tmp_path / "cache"))
    lines = []
    run_sweep(tiny_specs(), cache=cache, progress=lines.append)
    assert len(lines) == 3 and all("ms/step" in ln for ln in lines)
    lines.clear()
    run_sweep(tiny_specs(), cache=cache, progress=lines.append)
    assert len(lines) == 3 and all("cached" in ln for ln in lines)


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv(JOBS_ENV, "4")
    assert default_jobs() == 4
    monkeypatch.setenv(JOBS_ENV, "0")
    assert default_jobs() == 1
    monkeypatch.setenv(JOBS_ENV, "nope")
    assert default_jobs() == 1


# -- concurrent trajectory appends ------------------------------------------


def test_trajectory_appends_survive_concurrent_writers(tmp_path):
    """Parallel sweep workers all append to the same trajectory file;
    the advisory lock + atomic rename must not lose or tear records."""
    import threading

    from repro.bench.trajectory import RunRecord, append_record, load_records

    path = str(tmp_path / "traj.json")
    n_threads, per_thread = 4, 5

    def writer(tid):
        for k in range(per_thread):
            rec = RunRecord(name=f"t{tid}-{k}", config={"tid": tid, "k": k},
                            time_per_step_s=0.001)
            append_record(rec, path=path)

    threads = [threading.Thread(target=writer, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    records = load_records(path)
    assert len(records) == n_threads * per_thread
    names = {r.name for r in records}
    assert names == {f"t{t}-{k}" for t in range(n_threads)
                     for k in range(per_thread)}


def test_trajectory_append_is_atomic_on_disk(tmp_path):
    from repro.bench.trajectory import RunRecord, append_record, load_records

    path = str(tmp_path / "traj.json")
    append_record(RunRecord(name="a", config={}, time_per_step_s=1.0),
                  path=path)
    append_record(RunRecord(name="b", config={}, time_per_step_s=2.0),
                  path=path)
    # No stray tempfiles left behind; file parses whole.
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []
    assert [r.name for r in load_records(path)] == ["a", "b"]
