"""End-to-end differential observability: --ledger-out and `compare`.

The CI smoke in miniature: run the same configuration twice with
``--ledger-out``, compare the two schema-2 ledger records, and require
an all-neutral, exact (residual == 0.0) verdict — virtual time is
bit-reproducible, so any non-neutral component on a self-compare is a
bug in the attribution pipeline, not noise.
"""

import io
import json

import pytest

from repro.cli import main
from repro.obs.export import validate_chrome_trace
from repro.obs.ledger import records_from_file


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


CRITPATH_ARGS = ["inspect", "--view", "critpath",
                 "--pes", "4", "--objects", "16",
                 "--mesh", "256", "--steps", "4", "--latency", "2"]


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    """Two identical critpath runs appended to one ledger file."""
    monkeypatch.chdir(tmp_path)   # a stray side write would land here
    path = tmp_path / "ledger.json"
    for _ in range(2):
        code, _ = run_cli(CRITPATH_ARGS + ["--ledger-out", str(path)])
        assert code == 0
    return path


def test_critpath_ledger_out_writes_schema2_records(ledger, tmp_path):
    records = records_from_file(str(ledger))
    # Dedup is off for ledger files: both records are present even
    # though the runs are bit-identical (that is the point of A/B).
    assert len(records) == 2
    for rec in records:
        assert rec.schema == 2
        assert rec.critpath is not None
        assert rec.critpath["steps"] == 4
        # Real runs are off the dyadic grid: the attribution residual
        # is reported float noise, never silently absorbed.
        assert abs(rec.critpath["residual_s"]) < 1e-12
        assert rec.config["experiment"] == "critpath"
    assert records[0].same_run(records[1])
    # The named file (and its lock sidecar) is the only thing written.
    assert not (tmp_path / ".repro-cache").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ledger.json", "ledger.json.lock"]


def test_netview_ledger_out_carries_net_rollup(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "nv.json"
    code, _ = run_cli(["inspect", "--view", "netview",
                       "--pes", "4", "--objects", "16",
                       "--mesh", "256", "--steps", "4", "--latency", "2",
                       "--ledger-out", str(path)])
    assert code == 0
    (rec,) = records_from_file(str(path))
    assert rec.schema == 2
    assert rec.critpath is not None
    assert rec.config["experiment"] == "netview"
    assert rec.extra["net"]["wan_crossings"] > 0


def test_compare_self_is_all_neutral_and_exact(ledger):
    code, text = run_cli(["compare", "0", "1", "--path", str(ledger)])
    assert code == 0
    assert "residual +0.000e+00 s  (exact)" in text
    assert "regressed" not in text

    code, text = run_cli(["compare", "0", "1", "--path", str(ledger),
                          "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["schema"] == 1
    assert doc["all_neutral"] is True
    assert doc["exact"] is True
    assert doc["residual_s"] == 0.0
    assert doc["total"]["verdict"] == "neutral"
    assert not doc["config_changed"]
    assert {c["component"] for c in doc["components"]} >= {
        "compute", "propagation", "retransmit_stall"}


def test_compare_trace_out_is_valid_and_two_sided(ledger, tmp_path):
    trace = tmp_path / "cmp.trace.json"
    code, text = run_cli(["compare", "0", "1", "--path", str(ledger),
                          "--trace-out", str(trace)])
    assert code == 0
    assert "Chrome trace written" in text
    doc = json.loads(trace.read_text())
    validate_chrome_trace(doc)
    assert {e["pid"] for e in doc["traceEvents"]} == {1, 2}


def test_compare_detects_fabricated_regression(ledger):
    records = json.loads(ledger.read_text())
    cand = records[1]
    cand["critpath"]["retransmit_stall_s"] += cand["critpath"]["wall_s"]
    ledger.write_text(json.dumps(records))
    with pytest.raises(SystemExit) as err:
        run_cli(["compare", "0", "1", "--path", str(ledger)])
    assert err.value.code == 1
    # The verdict names the guilty component.
    code, text = run_cli(["compare", "0", "1", "--path", str(ledger),
                          "--json", "--threshold", "1000"])
    assert code == 0   # huge threshold: neutral total, but deltas remain
    doc = json.loads(text)
    by_name = {c["component"]: c for c in doc["components"]}
    assert by_name["retransmit_stall"]["delta_s"] > 0
    assert by_name["compute"]["delta_s"] == 0.0


def test_compare_accepts_standalone_record_files(ledger, tmp_path):
    records = records_from_file(str(ledger))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(records[0].to_dict()))
    b.write_text(json.dumps(records[1].to_dict()))
    code, text = run_cli(["compare", str(a), str(b)])
    assert code == 0
    assert "(exact)" in text


def test_compare_rejects_records_without_critpath(ledger):
    records = json.loads(ledger.read_text())
    del records[0]["critpath"]
    records[0]["schema"] = 1
    ledger.write_text(json.dumps(records))
    with pytest.raises(SystemExit) as err:
        run_cli(["compare", "0", "1", "--path", str(ledger)])
    assert "no critpath payload" in str(err.value)


def test_compare_operand_errors(ledger, tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["compare", "0", "7", "--path", str(ledger)])
    assert "out of range" in str(err.value)
    with pytest.raises(SystemExit) as err:
        run_cli(["compare", "0", "1",
                 "--path", str(tmp_path / "missing.json")])
    assert "no trajectory records" in str(err.value)
    with pytest.raises(SystemExit) as err:
        run_cli(["compare", str(tmp_path / "nope.json"), "0",
                 "--path", str(ledger)])
    assert "not an integer index" in str(err.value)


def test_bench_diff_delegates_to_component_diff(ledger):
    """With v2 records in the trajectory, bench-diff explains its
    headline ratio with the per-component table from repro compare."""
    code, text = run_cli(["bench-diff", "--path", str(ledger)])
    assert code == 0
    assert "ratio" in text
    assert "retransmit_stall" in text   # the component table rode along
    assert "(exact)" in text

    code, text = run_cli(["bench-diff", "--path", str(ledger), "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["critpath_diff"]["all_neutral"] is True
    assert doc["critpath_diff"]["residual_s"] == 0.0
