"""Tests for the benchmark harness entry points."""

import pytest

from repro.bench.harness import (
    TERAGRID_ONE_WAY_MS,
    collectives_point,
    leanmd_point,
    routing_variant_label,
    stencil_ampi_point,
    stencil_point,
)
from repro.bench.executor import run_sweep
from repro.bench.sweep import specs_fig3, specs_fig3_collectives, specs_table2


def test_stencil_point_fields():
    p = stencil_point("t", pes=4, objects=16, latency_ms_value=2.0,
                      mesh=(128, 128), steps=5)
    assert p.app == "stencil"
    assert p.environment == "artificial"
    assert (p.pes, p.objects, p.latency_ms) == (4, 16, 2.0)
    assert p.time_per_step > 0
    assert p.extra["mesh"] == [128, 128]
    assert p.extra["payload"] == "modeled"


def test_stencil_point_teragrid_env():
    p = stencil_point("t", pes=4, objects=16,
                      latency_ms_value=TERAGRID_ONE_WAY_MS,
                      mesh=(128, 128), steps=5, environment="teragrid")
    assert p.environment == "teragrid"
    assert p.time_per_step > 0


def test_stencil_point_rejects_unknown_env():
    with pytest.raises(ValueError):
        stencil_point("t", 2, 4, 0.0, environment="cloud")


def test_leanmd_point_fields():
    p = leanmd_point("t", pes=4, latency_ms_value=2.0, cells=(2, 2, 2),
                     atoms_per_cell=4, steps=4)
    assert p.app == "leanmd"
    assert p.objects == 8          # cells in the grid
    assert p.extra["atoms_per_cell"] == 4
    assert p.time_per_step > 0


def test_leanmd_point_rejects_unknown_env():
    with pytest.raises(ValueError):
        leanmd_point("t", 2, 0.0, environment="cloud")


def test_stencil_ampi_point():
    p = stencil_ampi_point("t", pes=2, ranks=4, latency_ms_value=1.0,
                           mesh=(64, 64), steps=4)
    assert p.app == "stencil-ampi"
    assert p.objects == 4
    assert p.time_per_step > 0


def test_routing_variant_labels():
    assert routing_variant_label("flat", 1) == "flat"
    assert routing_variant_label("hierarchical", 1) == "hier"
    assert routing_variant_label("hierarchical", 4) == "hier+striped"


def test_collectives_point_fields():
    p = collectives_point("t", pes=4, objects=8, latency_ms_value=2.0,
                          routing="hierarchical", wan_streams=2,
                          payload_bytes=32 * 1024, steps=4)
    assert p.app == "collectives"
    assert (p.pes, p.objects, p.latency_ms) == (4, 8, 2.0)
    assert p.time_per_step > 0
    assert p.extra["variant"] == "hier+striped"
    assert p.extra["wan_messages"] > 0
    assert p.extra["checksum"] == pytest.approx(4 * 8)


def test_collectives_point_ampi():
    p = collectives_point("t", pes=4, objects=8, latency_ms_value=2.0,
                          ampi=True, payload_bytes=16 * 1024, steps=3)
    assert p.app == "collectives-ampi"
    assert p.extra["variant"] == "flat"
    assert p.time_per_step > 0


def test_hier_striped_dominates_flat_at_high_latency():
    # The Figure-3c acceptance bar, at one 8 ms point: hierarchical
    # routing over striped WAN strictly beats flat fan-out.
    kwargs = dict(latency_ms_value=8.0, payload_bytes=256 * 1024, steps=4)
    flat = collectives_point("t", 8, 64, routing="flat", wan_streams=1,
                             **kwargs)
    best = collectives_point("t", 8, 64, routing="hierarchical",
                             wan_streams=4, **kwargs)
    assert best.time_per_step < flat.time_per_step
    assert best.extra["wan_messages"] < flat.extra["wan_messages"]
    assert best.extra["checksum"] == flat.extra["checksum"]


def test_specs_fig3_collectives_cover_all_variants():
    specs = specs_fig3_collectives(latencies_ms=(0.0, 8.0), steps=2)
    assert len(specs) == 2 * 3 * 2       # kinds x variants x latencies
    assert {s.kind for s in specs} == {"collectives", "collectives-ampi"}
    assert {(s.routing, s.wan_streams) for s in specs} == {
        ("flat", 1), ("hierarchical", 1), ("hierarchical", 4)}


def test_sweep_fig3_single_panel_structure():
    points = run_sweep(specs_fig3(panels=[2], latencies_ms=[0.0, 4.0],
                                  steps=4))
    assert len(points) == 3 * 2            # 3 virtualizations x 2 latencies
    assert {p.pes for p in points} == {2}
    assert {p.experiment for p in points} == {"fig3"}


def test_sweep_table2_structure():
    points = run_sweep(specs_table2(pe_counts=[2], steps=4))
    envs = sorted(p.environment for p in points)
    assert envs == ["artificial", "teragrid"]


def test_points_carry_observability_digest():
    p = stencil_point("t", pes=4, objects=16, latency_ms_value=4.0,
                      mesh=(128, 128), steps=5)
    obs = p.extra["obs"]
    assert obs["executions"] > 0
    assert 0.0 < obs["mean_utilization"] <= 1.0
    assert obs["wan"]["windows"] > 0
    assert 0.0 <= obs["wan"]["masked_fraction"] <= 1.0
    assert obs["messages"]["wan_sent"] <= obs["messages"]["sent"]
    import json
    json.dumps(p.to_dict())  # rows stay JSON-serializable


def test_points_are_deterministic():
    a = stencil_point("t", 4, 16, 3.0, mesh=(128, 128), steps=5)
    b = stencil_point("t", 4, 16, 3.0, mesh=(128, 128), steps=5)
    assert a.time_per_step == b.time_per_step


def test_stencil_point_percell_kernel_same_measurement():
    numpy_p = stencil_point("t", pes=2, objects=4, latency_ms_value=4.0,
                            mesh=(24, 24), steps=3, payload="real")
    percell_p = stencil_point("t", pes=2, objects=4, latency_ms_value=4.0,
                              mesh=(24, 24), steps=3, payload="real",
                              kernel="percell")
    assert percell_p.time_per_step == numpy_p.time_per_step
