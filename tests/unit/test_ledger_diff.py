"""Unit tests for the run ledger and differential comparison.

The load-bearing invariant: ``repro compare``'s per-component deltas
sum to the total step-time delta with residual exactly 0.0 whenever the
underlying arithmetic is exact — identical records always, dyadic grids
by construction (the property suite covers those).
"""

import json
from types import SimpleNamespace

import pytest

from repro.bench.trajectory import RunRecord, append_record, load_records
from repro.obs.critpath import COMPONENTS
from repro.obs.diff import (
    compare_records,
    write_compare_trace,
)
from repro.obs.export import validate_chrome_trace
from repro.obs.ledger import (
    attribution_totals,
    health_rollup,
    records_from_file,
)


def fake_step(wall, **components):
    vals = {k: 0.0 for k in COMPONENTS}
    vals.update(components)
    return SimpleNamespace(wall=wall, **vals)


def mk_record(name="r", *, steps=4, critpath=None,
              tps=1.0, config=None, extra=None):
    cp = None
    if critpath is not None:
        cp = {"steps": steps, "wall_s": sum(critpath.values())}
        for k in COMPONENTS:
            cp[f"{k}_s"] = critpath.get(k, 0.0)
        cp["residual_s"] = 0.0
    return RunRecord(name=name, config=config or {"name": name},
                     time_per_step_s=tps, schema=2, critpath=cp,
                     extra=extra or {})


# -- attribution totals ----------------------------------------------------


def test_attribution_totals_preserve_partition():
    steps = [fake_step(3.0, compute=1.0, propagation=2.0),
             fake_step(1.5, compute=0.5, device_queue=1.0)]
    out = attribution_totals(steps)
    assert out["steps"] == 2
    assert out["wall_s"] == 4.5
    assert out["compute_s"] == 1.5
    assert out["propagation_s"] == 2.0
    assert out["device_queue_s"] == 1.0
    assert out["residual_s"] == 0.0
    # WIRE components only: propagation and device_queue, not compute.
    assert out["wan_flight_s"] == pytest.approx(3.0)


def test_health_rollup_counts_by_rule_and_severity():
    ev = [SimpleNamespace(rule="stall", severity="critical"),
          SimpleNamespace(rule="stall", severity="critical"),
          SimpleNamespace(rule="unmasking", severity="warning")]
    out = health_rollup(ev)
    assert out == {"events": 3,
                   "by_rule": {"stall": 2, "unmasking": 1},
                   "by_severity": {"critical": 2, "warning": 1}}
    assert health_rollup([]) is None


# -- record files ----------------------------------------------------------


def test_records_from_file_accepts_all_shapes(tmp_path):
    rec = mk_record(critpath={"compute": 1.0})
    # single record dict
    single = tmp_path / "one.json"
    single.write_text(json.dumps(rec.to_dict()))
    assert records_from_file(str(single))[0].same_run(rec)
    # trajectory array
    arr = tmp_path / "arr.json"
    append_record(rec, path=str(arr))
    assert records_from_file(str(arr))[0].same_run(rec)


# -- trajectory dedup ------------------------------------------------------


def test_append_record_dedups_identical_consecutive(tmp_path):
    path = str(tmp_path / "traj.json")
    rec = mk_record(critpath={"compute": 1.0})
    assert append_record(rec, path=path, dedup=True) == 1
    twin = mk_record(critpath={"compute": 1.0})
    twin.extra = {"obs_overhead": {"noise": 0.123}}   # wall-clock noise
    assert append_record(twin, path=path, dedup=True) == 1
    changed = mk_record(critpath={"compute": 1.0}, tps=2.0)
    assert append_record(changed, path=path, dedup=True) == 2
    # Escape hatch: dedup off appends even a byte-identical twin.
    assert append_record(twin, path=path, dedup=False) == 3


def test_dedup_only_collapses_the_last_record(tmp_path):
    path = str(tmp_path / "traj.json")
    a = mk_record("a", critpath={"compute": 1.0})
    b = mk_record("b", critpath={"compute": 2.0})
    append_record(a, path=path, dedup=True)
    append_record(b, path=path, dedup=True)
    # `a` again: the last record is `b`, so this appends (the dedup is
    # consecutive-only by design — A/B/A sequences are real data).
    assert append_record(mk_record("a", critpath={"compute": 1.0}),
                         path=path, dedup=True) == 3
    assert [r.name for r in load_records(path)] == ["a", "b", "a"]


def test_append_never_rewrites_earlier_records(tmp_path):
    """Earlier records go back to disk as stored, keys this version does
    not know included (a retired ``profile``, an ad-hoc ``note``)."""
    path = tmp_path / "traj.json"
    old = mk_record("old", critpath={"compute": 1.0}).to_dict()
    old["profile"] = {"phases": {"scheduler": {"wall_s": 0.5}}}
    old["note"] = "hand-annotated"
    path.write_text(json.dumps([old]))
    new = mk_record("new", critpath={"compute": 2.0})
    assert append_record(new, path=str(path), dedup=True) == 2
    stored = json.loads(path.read_text())
    assert stored[0] == old
    assert RunRecord.from_dict(stored[1]).same_run(new)


# -- compare_records -------------------------------------------------------


def test_self_compare_is_exact_and_all_neutral():
    rec = mk_record(critpath={"compute": 1.0, "propagation": 0.375},
                    extra={"net": {"wan_crossings": 8}})
    cmp = compare_records(rec, rec)
    assert cmp.residual_s == 0.0
    assert cmp.exact
    assert cmp.all_neutral
    assert cmp.delta_step_s == 0.0
    assert cmp.net["wan_crossings"]["delta"] == 0


def test_component_deltas_sum_to_total_delta():
    base = mk_record("base", critpath={"compute": 4.0, "propagation": 2.0})
    cand = mk_record("cand", critpath={"compute": 4.0, "propagation": 3.0,
                                       "retransmit_stall": 1.0})
    cmp = compare_records(base, cand)
    assert cmp.residual_s == 0.0
    deltas = {c.component: c.delta_s for c in cmp.components}
    assert deltas["propagation"] == pytest.approx(0.25)      # /4 steps
    assert deltas["retransmit_stall"] == pytest.approx(0.25)
    assert cmp.delta_step_s == pytest.approx(0.5)
    assert cmp.verdict == "regressed"
    verdicts = {c.component: c.verdict for c in cmp.components}
    assert verdicts["propagation"] == "regressed"
    assert verdicts["retransmit_stall"] == "regressed"
    assert verdicts["compute"] == "neutral"


def test_improvement_verdict_and_threshold_scale():
    base = mk_record("base", critpath={"compute": 8.0, "propagation": 2.0})
    cand = mk_record("cand", critpath={"compute": 8.0, "propagation": 1.0})
    cmp = compare_records(base, cand)
    assert cmp.verdict == "improved"
    # A delta under threshold x baseline-total is neutral.
    tiny = mk_record("t", critpath={"compute": 8.0, "propagation": 1.99})
    assert compare_records(base, tiny).all_neutral


def test_compare_requires_critpath_payload():
    v1 = RunRecord(name="old", config={}, time_per_step_s=1.0)
    v2 = mk_record(critpath={"compute": 1.0})
    with pytest.raises(ValueError, match="no critpath payload"):
        compare_records(v1, v2)
    with pytest.raises(ValueError, match="candidate"):
        compare_records(v2, v1)


def test_compare_handles_different_step_counts():
    base = mk_record("base", steps=4, critpath={"compute": 4.0})
    cand = mk_record("cand", steps=8, critpath={"compute": 8.0})
    cmp = compare_records(base, cand)   # same 1.0 s/step on both sides
    assert cmp.delta_step_s == 0.0
    assert cmp.all_neutral


def test_compare_render_and_dict_shapes():
    base = mk_record("base", critpath={"compute": 4.0})
    cand = mk_record("cand", critpath={"compute": 6.0},
                     config={"name": "other"})
    cmp = compare_records(base, cand)
    text = cmp.render()
    assert "config digests differ" in text
    assert "total/step" in text and "residual" in text
    doc = cmp.to_dict()
    json.dumps(doc)
    assert doc["exact"] and not doc["all_neutral"]
    assert doc["total"]["verdict"] == "regressed"
    assert len(doc["components"]) == len(COMPONENTS)
    assert doc["residual_s"] == 0.0


def test_compare_chrome_trace_valid_and_two_sided(tmp_path):
    base = mk_record("base", critpath={"compute": 4.0, "propagation": 2.0})
    cand = mk_record("cand", critpath={"compute": 4.0, "propagation": 4.0})
    cmp = compare_records(base, cand)
    out = tmp_path / "cmp.trace.json"
    write_compare_trace(cmp, str(out))
    doc = json.loads(out.read_text())
    validate_chrome_trace(doc)
    pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert pids == {1, 2}
    # Each side's slices tile to its own step total.
    for pid, total in ((1, cmp.baseline_step_s), (2, cmp.candidate_step_s)):
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["pid"] == pid
                  and e["name"] != "step"]
        assert sum(e["dur"] for e in slices) == pytest.approx(total * 1e6)
