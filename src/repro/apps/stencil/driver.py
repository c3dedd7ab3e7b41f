"""Stencil application driver: build, run, measure.

:class:`StencilApp` assembles the chare array on a
:class:`~repro.grid.environment.GridEnvironment`, runs it, and returns a
:class:`StencilResult` carrying the per-step completion times the paper's
Figure 3 / Table 1 report (as "Time (ms/step)").

Steady-state reporting: the first ``warmup`` steps are discarded (the
pipeline is filling: blocks start staggered as boot broadcasts arrive)
and the remaining steps' completion-time differences are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.stencil.chares import StencilBlock, StencilRunConfig
from repro.apps.stencil.costs import StencilCostModel
from repro.apps.stencil.decomposition import BlockDecomposition
from repro.apps.stencil.kernel import make_initial_mesh
from repro.core.mapping import grid2d_split_mapping
from repro.errors import ConfigurationError
from repro.grid.environment import GridEnvironment
from repro.units import to_ms


@dataclass
class StencilResult:
    """Outcome of one stencil run."""

    #: Virtual completion time of each step (max over blocks), seconds.
    step_times: np.ndarray
    #: Sum over the final mesh interior (0.0 in modeled-payload runs).
    checksum: float
    #: Reassembled final mesh (only when ``gather_mesh=True``).
    final_mesh: Optional[np.ndarray]
    #: Total virtual time of the run, seconds.
    makespan: float
    #: Steps discarded as pipeline warm-up in the per-step statistic.
    warmup: int

    @property
    def steps(self) -> int:
        return len(self.step_times)

    @property
    def time_per_step(self) -> float:
        """Steady-state seconds per step (paper's reported metric)."""
        if self.steps == 0:
            return 0.0
        if self.steps <= self.warmup + 1:
            return self.step_times[-1] / max(self.steps, 1)
        window = self.step_times[self.warmup:]
        return float(window[-1] - window[0]) / (len(window) - 1)

    @property
    def time_per_step_ms(self) -> float:
        return to_ms(self.time_per_step)


class StencilApp:
    """The paper's five-point stencil experiment on one environment.

    Parameters
    ----------
    env:
        Simulated grid (artificial-latency, TeraGrid, or single cluster).
    mesh:
        Mesh shape; the paper uses ``(2048, 2048)``.
    objects:
        Degree of virtualization — total chare count (4..1024).
    payload:
        ``"real"`` performs the numerics; ``"modeled"`` reproduces the
        identical event flow without arithmetic (for large sweeps).
    costs:
        Cost-model override (defaults to the Itanium-2 calibration).
    mapping:
        Placement override; defaults to the paper's cluster-split block
        mapping along mesh columns.
    seed:
        Initial-condition seed (real payload only).
    kernel:
        Jacobi arithmetic flavor (``"numpy"`` block kernel or
        ``"percell"`` scalar reference; real payload only).
    """

    def __init__(self, env: GridEnvironment, mesh: Tuple[int, int] = (2048, 2048),
                 objects: int = 64, payload: str = "real",
                 costs: Optional[StencilCostModel] = None,
                 mapping=None, seed: int = 0,
                 gather_mesh: bool = False, kernel: str = "numpy") -> None:
        self.env = env
        self.decomp = BlockDecomposition.regular(mesh, objects)
        self.payload = payload
        self.costs = costs
        self.mapping = mapping
        self.seed = seed
        self.gather_mesh = gather_mesh
        self.kernel = kernel
        self._results: Dict[str, object] = {}

    # -- reduction callbacks -------------------------------------------------

    def _on_times(self, times: np.ndarray) -> None:
        self._results["times"] = times

    def _on_checksum(self, value: float) -> None:
        self._results["checksum"] = value

    def _on_mesh(self, pairs: List) -> None:
        self._results["mesh_pairs"] = pairs

    # -- the run ---------------------------------------------------------------

    def run(self, steps: int, warmup: Optional[int] = None) -> StencilResult:
        """Execute *steps* Jacobi iterations; returns the measurements."""
        if steps <= 0:
            raise ConfigurationError(f"steps must be positive, got {steps}")
        if warmup is None:
            warmup = min(max(steps // 5, 1), 5)
        if warmup >= steps:
            raise ConfigurationError(
                f"warmup {warmup} must be < steps {steps}")

        cfg_kwargs = {"steps": steps, "payload": self.payload,
                      "gather_mesh": self.gather_mesh,
                      "kernel": self.kernel}
        if self.costs is not None:
            cfg_kwargs["costs"] = self.costs
        config = StencilRunConfig(**cfg_kwargs)

        initial = (make_initial_mesh(self.decomp.mesh_rows,
                                     self.decomp.mesh_cols, self.seed)
                   if self.payload == "real" else None)

        decomp = self.decomp
        targets = (self._on_times, self._on_checksum, self._on_mesh)

        def args_of(idx):
            bi, bj = idx
            block_init = None
            if initial is not None:
                rs, cs = decomp.interior_slices(bi, bj)
                block_init = initial[rs, cs].copy()
            return ((bi, bj, decomp, config, block_init, targets), {})

        mapping = self.mapping
        if mapping is None:
            mapping = grid2d_split_mapping(decomp.brows, decomp.bcols,
                                           self.env.topology)
        blocks = self.env.runtime.create_array(
            StencilBlock, decomp.indices(), mapping, args_of=args_of)

        t0 = self.env.now
        blocks.start()
        self.env.run()

        if "times" not in self._results:
            raise ConfigurationError(
                "run ended without completing (deadlock or zero blocks?)")
        times = np.asarray(self._results["times"], dtype=np.float64) - t0

        final_mesh = None
        if self.gather_mesh and self.payload == "real":
            final_mesh = self._reassemble(self._results.get("mesh_pairs", []))

        return StencilResult(
            step_times=times,
            checksum=float(self._results.get("checksum", 0.0)),
            final_mesh=final_mesh,
            makespan=self.env.now - t0,
            warmup=warmup,
        )

    def _reassemble(self, pairs: List) -> np.ndarray:
        mesh = np.zeros((self.decomp.mesh_rows, self.decomp.mesh_cols))
        for (bi, bj), block in pairs:
            rs, cs = self.decomp.interior_slices(bi, bj)
            mesh[rs, cs] = block
        return mesh


def run_stencil(env: GridEnvironment, mesh: Tuple[int, int], objects: int,
                steps: int, payload: str = "modeled",
                costs: Optional[StencilCostModel] = None,
                warmup: Optional[int] = None,
                kernel: str = "numpy") -> StencilResult:
    """One-call convenience wrapper used by the benchmark sweeps."""
    app = StencilApp(env, mesh=mesh, objects=objects, payload=payload,
                     costs=costs, kernel=kernel)
    return app.run(steps, warmup=warmup)
