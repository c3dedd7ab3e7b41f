"""Tests for the ``python -m repro`` command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_table1_subset():
    code, text = run_cli(["sweep", "table1", "--rows", "2x16", "--steps",
                          "4", "--no-cache", "--quiet"])
    assert code == 0
    assert "Table 1" in text
    assert "75.050" in text       # the paper column is present


def test_table1_rejects_unknown_row():
    with pytest.raises(SystemExit):
        run_cli(["sweep", "table1", "--rows", "3x17"])


def test_table1_rejects_malformed_row():
    with pytest.raises(SystemExit):
        run_cli(["sweep", "table1", "--rows", "oops"])


def test_table2_subset():
    code, text = run_cli(["sweep", "table2", "--pes", "2", "--steps", "4",
                          "--no-cache", "--quiet"])
    assert code == 0
    assert "Table 2" in text
    assert "3.924" in text


def test_fig3_single_panel():
    code, text = run_cli(["sweep", "fig3", "--panels", "4", "--latencies",
                          "0", "4", "--steps", "4", "--no-cache", "--quiet"])
    assert code == 0
    assert "Figure 3 (4 PEs)" in text
    assert "objects=4" in text


def test_fig4_subset():
    code, text = run_cli(["sweep", "fig4", "--pes", "4", "--latencies", "1",
                          "64", "--steps", "4", "--no-cache", "--quiet"])
    assert code == 0
    assert "Figure 4" in text
    assert "pes=4" in text


def test_artefact_subcommands_folded_into_sweep():
    for old in ("table1", "table2", "fig3", "fig4"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([old])


def test_folded_subcommands_rejected():
    for old in ("bench-diff", "demo"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([old])


def test_trace_text_report():
    code, text = run_cli(["inspect", "--view", "trace",
                          "--pes", "4", "--objects", "16",
                          "--latency", "8", "--steps", "4"])
    assert code == 0
    assert "Latency-masking report" in text
    assert "masked fraction" in text
    assert "StencilBlock.ghost" in text


def test_trace_json_report():
    code, text = run_cli(["inspect", "--view", "trace",
                          "--pes", "4", "--objects", "16",
                          "--latency", "8", "--steps", "4", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["app"] == "stencil"
    assert doc["wan"]["windows"] > 0
    assert 0.0 <= doc["wan"]["masked_fraction"] <= 1.0
    assert 0.0 < doc["mean_utilization"] <= 1.0


def test_trace_exports_valid_files(tmp_path):
    from repro.obs.export import validate_chrome_trace

    trace_path = tmp_path / "run.trace.json"
    events_path = tmp_path / "run.events.jsonl"
    code, _ = run_cli(["inspect", "--view", "trace",
                       "--pes", "4", "--objects", "16",
                       "--latency", "4", "--steps", "3",
                       "--trace-out", str(trace_path),
                       "--events-out", str(events_path)])
    assert code == 0
    doc = json.loads(trace_path.read_text())
    validate_chrome_trace(doc)
    assert any(ev.get("cat") == "exec" for ev in doc["traceEvents"])
    assert any(ev.get("cat") == "wan" for ev in doc["traceEvents"])
    records = [json.loads(line)
               for line in events_path.read_text().splitlines()]
    assert {r["type"] for r in records} == {"exec", "message", "hops"}
    hops = [r for r in records if r["type"] == "hops"]
    assert all(r["spans"] for r in hops)


def test_trace_leanmd():
    code, text = run_cli(["inspect", "--view", "trace",
                          "--app", "leanmd", "--pes", "4",
                          "--steps", "2", "--json"])
    assert code == 0
    assert json.loads(text)["app"] == "leanmd"


def test_trace_rejects_bad_pes_and_latency():
    with pytest.raises(SystemExit):
        run_cli(["inspect", "--view", "trace", "--pes", "3"])
    with pytest.raises(SystemExit):
        run_cli(["inspect", "--view", "trace", "--latency", "-1"])
    with pytest.raises(SystemExit, match="--grid latencies must be >= 0"):
        run_cli(["inspect", "--view", "critpath", "--grid", "2", "-5"])
    with pytest.raises(SystemExit, match="--tolerance must be >= 1"):
        run_cli(["inspect", "--view", "critpath", "--tolerance", "0"])


@pytest.mark.parametrize("view, expect", [("health", "Health"),
                                          ("objview", "advisor: direction=")])
def test_inspect_text_views(view, expect, tmp_path):
    events = tmp_path / "health.jsonl"
    code, text = run_cli(["inspect", "--view", view, "--pes", "4",
                          "--objects", "16", "--mesh", "256", "--steps", "4",
                          "--health-out", str(events)])
    assert code == 0 and expect in text
    assert events.exists()


def test_run_and_render_subcommands_folded_into_inspect():
    for old in ("trace", "critpath", "health", "netview", "objview"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([old])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_module_entry_point_importable():
    import repro.__main__  # noqa: F401  (must not execute main on import)


# -- the parallel sweep executor command -------------------------------------


def test_sweep_serial_and_parallel_stdout_identical():
    argv = ["sweep", "fig3", "--panels", "2", "--latencies", "0", "4",
            "--steps", "2", "--no-cache", "--quiet"]
    code1, serial = run_cli(argv + ["--jobs", "1"])
    code2, parallel = run_cli(argv + ["--jobs", "2"])
    assert code1 == code2 == 0
    assert "Figure 3 (2 PEs)" in serial
    assert serial == parallel        # bit-identical artefact, any jobs


def test_sweep_second_run_is_cache_served(tmp_path):
    stats1, stats2 = tmp_path / "s1.json", tmp_path / "s2.json"
    argv = ["sweep", "table2", "--pes", "2", "--steps", "2", "--quiet",
            "--cache-dir", str(tmp_path / "cache")]
    code1, first = run_cli(argv + ["--stats-out", str(stats1)])
    code2, second = run_cli(argv + ["--stats-out", str(stats2)])
    assert code1 == code2 == 0
    assert first == second
    s1 = json.loads(stats1.read_text())
    s2 = json.loads(stats2.read_text())
    assert s1["cache_hits"] == 0 and s1["executed"] == s1["total"]
    assert s2["cache_fraction"] == 1.0 and s2["executed"] == 0


def test_sweep_fig3c_renders_both_flavours(tmp_path):
    stats = tmp_path / "stats.json"
    code, text = run_cli(["sweep", "fig3c", "--latencies", "0", "8",
                          "--steps", "2", "--no-cache", "--quiet",
                          "--stats-out", str(stats)])
    assert code == 0
    assert "Figure 3c (collectives)" in text
    assert "Figure 3c (collectives-ampi)" in text
    for variant in ("flat", "hier", "hier+striped"):
        assert variant in text
    s = json.loads(stats.read_text())
    assert s["total"] == 12 and s["errors"] == 0


def test_sweep_rejects_bad_jobs_and_panel():
    with pytest.raises(SystemExit):
        run_cli(["sweep", "fig3", "--jobs", "0"])
    with pytest.raises(SystemExit):
        run_cli(["sweep", "fig3", "--panels", "7"])


def test_sweep_figure_with_error_rows_lists_failures():
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "fig3", "--panels", "2", "--latencies", "0", "-1",
              "--steps", "2", "--no-cache", "--quiet"], out=out)
    assert exc.value.code == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == "Figure 3 (2 PEs) - stencil time/step vs latency"
    failed = [line for line in lines if line.startswith("FAILED fig3")]
    assert len(failed) == 3
    assert all("@ -1ms" in line for line in failed)
    assert lines[-3:] == failed      # listed after the panel


def test_sweep_table1_row_subset(tmp_path):
    code, text = run_cli(["sweep", "table1", "--rows", "2x16",
                          "--steps", "2", "--quiet", "--no-cache"])
    assert code == 0
    assert "Table 1" in text
