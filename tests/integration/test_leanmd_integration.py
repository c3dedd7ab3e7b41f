"""Integration tests for LeanMD on the simulated grid."""

import numpy as np
import pytest

from repro.apps.leanmd import (
    CellGrid,
    LeanMDApp,
    MdParams,
    build_system,
    run_leanmd,
    run_reference,
)
from repro.grid.presets import artificial_latency_env, single_cluster_env, teragrid_env
from repro.units import ms

GRID = (3, 3, 3)
APC = 5
STEPS = 5
SEED = 7


def parallel_positions(res, grid):
    return np.concatenate([res.final_state[c][0]
                           for c in CellGrid(grid).cells()])


def run_parallel(env, steps=STEPS, pair_mapping=None):
    app = LeanMDApp(env, cells=GRID, atoms_per_cell=APC, payload="real",
                    gather_positions=True, seed=SEED,
                    pair_mapping=pair_mapping)
    return app.run(steps)


@pytest.fixture(scope="module")
def reference():
    system = build_system(CellGrid(GRID), APC, MdParams(), seed=SEED)
    return run_reference(system, STEPS)


def test_matches_reference_single_cluster(reference):
    res = run_parallel(single_cluster_env(2))
    assert np.allclose(parallel_positions(res, GRID), reference.positions,
                       atol=1e-10)


def test_matches_reference_across_wan(reference):
    res = run_parallel(artificial_latency_env(4, ms(10)))
    assert np.allclose(parallel_positions(res, GRID), reference.positions,
                       atol=1e-10)


def test_matches_reference_teragrid(reference):
    res = run_parallel(teragrid_env(4, seed=2))
    assert np.allclose(parallel_positions(res, GRID), reference.positions,
                       atol=1e-10)


def test_energy_traces_match_reference(reference):
    res = run_parallel(artificial_latency_env(2, ms(1)))
    assert np.allclose(res.kinetic, reference.kinetic, atol=1e-9)
    assert np.allclose(res.potential, reference.potential, atol=1e-9)


def test_energy_approximately_conserved():
    """Symplectic integration at small dt: total energy drift is tiny."""
    res = run_parallel(single_cluster_env(2), steps=12)
    total = res.total_energy
    drift = abs(total[-1] - total[0]) / abs(total[0])
    assert drift < 0.05


def test_latency_never_changes_numerics(reference):
    """Cells fold pair forces in sorted pair order, so final positions
    and velocities are bit-identical at any latency, PE count and pair
    mapping.  (Positions alone would not notice an arrival-order fold
    here: dt scales its last-bit force differences below their ulp.)

    Energies are not asserted: ``forces_from`` adds pair potentials in
    arrival order and the cross-cell ``sum`` reduction combines partials
    in arrival order, so ``kinetic`` and ``potential`` differ in the
    last bits between these same configurations.
    """
    configs = [(pes, latency, None) for pes in (2, 4, 8)
               for latency in (0.0, 50.0)]
    configs += [(4, latency, "colocated") for latency in (0.0, 50.0)]
    first = None
    for pes, latency, mapping in configs:
        res = run_parallel(artificial_latency_env(pes, ms(latency)),
                           pair_mapping=mapping)
        positions = parallel_positions(res, GRID)
        assert np.allclose(positions, reference.positions, atol=1e-10)
        state = np.concatenate([np.concatenate(res.final_state[c])
                                for c in CellGrid(GRID).cells()])
        if first is None:
            first = state
        assert np.array_equal(state, first), (pes, latency, mapping)


def test_deterministic_across_runs():
    a = run_leanmd(artificial_latency_env(8, ms(4)), cells=GRID,
                   atoms_per_cell=APC, steps=STEPS)
    b = run_leanmd(artificial_latency_env(8, ms(4)), cells=GRID,
                   atoms_per_cell=APC, steps=STEPS)
    assert np.array_equal(a.step_times, b.step_times)


def test_modeled_payload_same_timing_as_real():
    times = []
    for payload in ("real", "modeled"):
        env = artificial_latency_env(4, ms(4))
        app = LeanMDApp(env, cells=GRID, atoms_per_cell=APC,
                        payload=payload, seed=SEED)
        times.append(app.run(STEPS).step_times)
    assert np.allclose(times[0], times[1], rtol=0, atol=1e-12)


def test_step_times_monotone_and_result_shape():
    res = run_leanmd(artificial_latency_env(4, ms(2)), cells=GRID,
                     atoms_per_cell=APC, steps=STEPS)
    assert len(res.step_times) == STEPS
    assert np.all(np.diff(res.step_times) > 0)
    assert res.time_per_step > 0


def test_paper_scale_object_graph_runs():
    """The full 216-cell / 3,024-pair benchmark executes (modeled)."""
    env = artificial_latency_env(8, ms(1.725))
    res = run_leanmd(env, steps=3)
    assert len(res.step_times) == 3
    # ~8 s of sequential work over 8 PEs: order 1 s/step.
    assert 0.5 < res.time_per_step < 2.5


def test_bad_parameters():
    from repro.errors import ConfigurationError
    env = artificial_latency_env(2, ms(1))
    app = LeanMDApp(env, cells=GRID, atoms_per_cell=APC)
    with pytest.raises(ConfigurationError):
        app.run(0)


def test_colocated_pair_mapping_is_slower():
    """The naive placement (pairs at their first cell's PE) piles the
    seam pairs up; the default balanced placement beats it."""
    naive = LeanMDApp(artificial_latency_env(8, ms(2)), cells=GRID,
                      atoms_per_cell=APC, payload="modeled",
                      pair_mapping="colocated").run(STEPS)
    fair = LeanMDApp(artificial_latency_env(8, ms(2)), cells=GRID,
                     atoms_per_cell=APC, payload="modeled",
                     pair_mapping="balanced").run(STEPS)
    assert fair.time_per_step < naive.time_per_step


def test_colocated_mapping_same_numerics(reference):
    res = LeanMDApp(artificial_latency_env(4, ms(5)), cells=GRID,
                    atoms_per_cell=APC, payload="real",
                    gather_positions=True, seed=SEED,
                    pair_mapping="colocated").run(STEPS)
    assert np.allclose(parallel_positions(res, GRID), reference.positions,
                       atol=1e-10)


def test_invalid_pair_mapping_rejected():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        LeanMDApp(artificial_latency_env(2, 0.0), pair_mapping="random")
