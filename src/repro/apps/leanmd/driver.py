"""LeanMD application driver.

Builds the 216-cell / 3,024-pair object graph (or any other grid shape)
on a grid environment, runs it, and reports the per-step times of the
paper's Figure 4 / Table 2.

Default placement, matching the paper's "runs were conducted without any
load balancing":

* cells are cluster-split along x (half the simulation box per cluster)
  and block-distributed within each cluster;
* each pair object is co-located with its first cell — so pairs whose
  second cell lives across the seam are exactly the paper's "subset B"
  (WAN-fed) objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.leanmd.cell import Cell, LeanMDRunConfig
from repro.apps.leanmd.cellpair import CellPair
from repro.apps.leanmd.costs import LeanMDCostModel
from repro.apps.leanmd.geometry import CellGrid, split_pair
from repro.apps.leanmd.system import MdParams, MdSystem, build_system
from repro.core.mapping import ExplicitMapping, grid3d_split_mapping
from repro.errors import ConfigurationError
from repro.grid.environment import GridEnvironment
from repro.units import to_ms


@dataclass
class LeanMDResult:
    """Outcome of one LeanMD run."""

    step_times: np.ndarray      # virtual completion time per step (s)
    kinetic: np.ndarray         # total KE per step
    potential: np.ndarray       # total PE per step
    final_state: Optional[Dict] # cell -> (positions, velocities)
    makespan: float
    warmup: int

    @property
    def steps(self) -> int:
        return len(self.step_times)

    @property
    def time_per_step(self) -> float:
        """Steady-state seconds/step (paper's Figure 4 / Table 2 metric)."""
        if self.steps == 0:
            return 0.0
        if self.steps <= self.warmup + 1:
            return self.step_times[-1] / max(self.steps, 1)
        window = self.step_times[self.warmup:]
        return float(window[-1] - window[0]) / (len(window) - 1)

    @property
    def time_per_step_ms(self) -> float:
        return to_ms(self.time_per_step)

    @property
    def total_energy(self) -> np.ndarray:
        return self.kinetic + self.potential


class LeanMDApp:
    """The paper's molecular-dynamics experiment on one environment."""

    #: WAN crossings on a step's critical cycle, the ``k`` of
    #: :func:`~repro.obs.critpath.masked_step_time`: a seam cell's
    #: coordinates cross to a pair and the forces cross back.
    WAN_LEGS = 2

    def __init__(self, env: GridEnvironment,
                 cells: Tuple[int, int, int] = (6, 6, 6),
                 atoms_per_cell: int = 64, payload: str = "real",
                 params: Optional[MdParams] = None,
                 costs: Optional[LeanMDCostModel] = None,
                 seed: int = 0, gather_positions: bool = False,
                 pair_mapping: Optional[str] = None) -> None:
        self.env = env
        self.grid = CellGrid(cells)
        self.atoms_per_cell = atoms_per_cell
        self.payload = payload
        self.params = params or MdParams()
        self.costs = costs
        self.seed = seed
        self.gather_positions = gather_positions
        if pair_mapping not in (None, "balanced", "colocated"):
            raise ConfigurationError(
                f"pair_mapping must be 'balanced' (default) or "
                f"'colocated', got {pair_mapping!r}")
        #: "balanced" deals pairs round-robin per cluster (default);
        #: "colocated" pins every pair to its first cell's PE — the
        #: naive placement whose imbalance the load-balancing ablation
        #: measures and repairs.
        self.pair_mapping = pair_mapping or "balanced"
        self._results: Dict[str, object] = {}

    # -- reduction callbacks -----------------------------------------------

    def _on_times(self, times) -> None:
        self._results["times"] = times

    def _on_ke(self, ke) -> None:
        self._results["ke"] = ke

    def _on_pe(self, pe) -> None:
        self._results["pe"] = pe

    def _on_positions(self, pairs) -> None:
        self._results["positions"] = pairs

    # -- the run --------------------------------------------------------------

    def run(self, steps: int, warmup: Optional[int] = None) -> LeanMDResult:
        if steps <= 0:
            raise ConfigurationError(f"steps must be positive: {steps}")
        if warmup is None:
            warmup = min(max(steps // 5, 1), 5)
        if warmup >= steps:
            raise ConfigurationError(
                f"warmup {warmup} must be < steps {steps}")

        cfg_kwargs = {"steps": steps, "atoms_per_cell": self.atoms_per_cell,
                      "payload": self.payload,
                      "gather_positions": self.gather_positions}
        if self.costs is not None:
            cfg_kwargs["costs"] = self.costs
        config = LeanMDRunConfig(**cfg_kwargs)

        system: Optional[MdSystem] = None
        if self.payload == "real":
            system = build_system(self.grid, self.atoms_per_cell,
                                  self.params, self.seed)

        rts = self.env.runtime
        grid = self.grid
        params = self.params
        targets = (self._on_times, self._on_ke, self._on_pe,
                   self._on_positions)

        # -- cells ----------------------------------------------------------
        cell_mapping = grid3d_split_mapping(
            grid.shape[0], self.env.topology, axis=0, within="block")

        def cell_args(idx):
            state = system.cells[idx] if system is not None else None
            return ((idx, grid, params, config, state, targets), {})

        cells_proxy = rts.create_array(Cell, grid.cells(), cell_mapping,
                                       args_of=cell_args)

        # -- pairs: cluster of one of their cells, spread round-robin ---------
        # A pair belongs with its cells' cluster (keeping most coordinate
        # traffic off the WAN); seam-straddling pairs alternate between
        # their two cells' clusters so neither cluster inherits the whole
        # seam.  Within a cluster, pairs deal round-robin over the PEs —
        # the "no load balancing" default placement of the paper's runs.
        topo = self.env.topology
        cell_pe = rts.collection_mapping(cells_proxy.collection)
        pair_table = {}
        if self.pair_mapping == "colocated":
            for p in grid.pairs():
                pair_table[p] = cell_pe[split_pair(p)[0]]
        else:
            rr_next = {c: 0 for c in range(topo.num_clusters)}
            for p in grid.pairs():
                a, b = split_pair(p)
                ca = topo.cluster_of(cell_pe[a])
                cb = topo.cluster_of(cell_pe[b])
                cluster = ca if (ca == cb or sum(p) % 2 == 0) else cb
                pes = topo.cluster_pes(cluster)
                pair_table[p] = pes[rr_next[cluster] % len(pes)]
                rr_next[cluster] += 1
        box = np.array(grid.shape, dtype=np.float64) * params.cutoff

        def pair_args(idx):
            a, b = split_pair(idx)
            qa = system.cells[a].charges if system is not None else None
            qb = system.cells[b].charges if system is not None else None
            return ((idx, params, config, cells_proxy, box, qa, qb), {})

        pairs_proxy = rts.create_array(
            CellPair, grid.pairs(), ExplicitMapping(pair_table),
            args_of=pair_args)

        # -- go ------------------------------------------------------------------
        t0 = self.env.now

        def all_ready(_none) -> None:
            cells_proxy.go()

        cells_proxy.setup(pairs_proxy, all_ready)
        self.env.run()

        if "times" not in self._results:
            raise ConfigurationError(
                "run ended without completing (deadlock?)")
        times = np.asarray(self._results["times"], dtype=np.float64) - t0

        final_state = None
        if self.gather_positions and self.payload == "real":
            final_state = {tuple(idx): state
                           for idx, state in self._results["positions"]}

        return LeanMDResult(
            step_times=times,
            kinetic=np.asarray(self._results["ke"], dtype=np.float64),
            potential=np.asarray(self._results["pe"], dtype=np.float64),
            final_state=final_state,
            makespan=self.env.now - t0,
            warmup=warmup,
        )


def run_leanmd(env: GridEnvironment, cells: Tuple[int, int, int] = (6, 6, 6),
               atoms_per_cell: int = 64, steps: int = 10,
               payload: str = "modeled",
               costs: Optional[LeanMDCostModel] = None,
               warmup: Optional[int] = None) -> LeanMDResult:
    """One-call convenience wrapper used by the benchmark sweeps."""
    app = LeanMDApp(env, cells=cells, atoms_per_cell=atoms_per_cell,
                    payload=payload, costs=costs)
    return app.run(steps, warmup=warmup)
