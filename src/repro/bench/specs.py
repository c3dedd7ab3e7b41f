"""Declarative run specifications for the sweep executor.

A :class:`RunSpec` is the *plan* for one experiment point — application,
machine size, virtualization, latency, steps, environment, seed — with
no side effects until :meth:`RunSpec.run` is called.  Sweeps build lists
of specs; the executor (:mod:`repro.bench.executor`) decides *how* to
realize them: serially, across a process pool, or straight out of the
content-addressed cache (:mod:`repro.bench.cache`).

Specs are frozen, hashable, picklable (they cross the process-pool
boundary) and serialize to a canonical config dict that doubles as the
cache key material.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.bench.records import ExperimentPoint

#: Applications the executor knows how to run.
KINDS = ("stencil", "stencil-ampi", "leanmd", "collectives",
         "collectives-ampi")


@dataclass(frozen=True)
class RunSpec:
    """One experiment point, declaratively.

    ``objects`` is the virtualization degree for the stencil variants
    and ignored for LeanMD (whose object count is the cell-grid size);
    ``mesh`` applies to the stencil variants, ``cells`` /
    ``atoms_per_cell`` to LeanMD.
    """

    kind: str                    # one of KINDS
    experiment: str              # "fig3", "table1", ... (row label)
    pes: int
    latency_ms: float
    steps: int
    objects: int = 0
    environment: str = "artificial"
    seed: int = 0
    payload: str = "modeled"
    mesh: Tuple[int, int] = (2048, 2048)
    cells: Tuple[int, int, int] = (6, 6, 6)
    atoms_per_cell: int = 64
    #: Collective routing mode ("flat" / "hierarchical"); only the
    #: collectives kinds vary it, but any artificial-environment kind
    #: honours it.
    routing: str = "flat"
    #: WAN stream model: 0 = legacy uncontended WAN, >= 1 = that many
    #: paced TCP streams (see :func:`repro.grid.presets._wan_device`).
    wan_streams: int = 0
    #: Broadcast payload for the collectives kinds, bytes.
    payload_bytes: int = 256 * 1024
    #: Stencil inner-loop flavour: "numpy" (block kernels, default) or
    #: "percell" (the per-cell reference loops — bit-identical results,
    #: orders of magnitude slower; for equivalence certification).
    kernel: str = "numpy"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown spec kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if self.kernel != "numpy" and self.kind != "stencil":
            raise ValueError(
                f"kernel applies only to stencil specs, not {self.kind!r}")

    def config(self) -> Dict[str, Any]:
        """Canonical, JSON-stable configuration dict.

        Only the fields that influence the run for this ``kind`` are
        included, so e.g. a stencil spec's cache key does not change
        when LeanMD defaults do.
        """
        base: Dict[str, Any] = {
            "kind": self.kind,
            "experiment": self.experiment,
            "pes": self.pes,
            "latency_ms": self.latency_ms,
            "steps": self.steps,
            "environment": self.environment,
            "seed": self.seed,
            "payload": self.payload,
        }
        if self.kind == "leanmd":
            base["cells"] = list(self.cells)
            base["atoms_per_cell"] = self.atoms_per_cell
        elif self.kind in ("collectives", "collectives-ampi"):
            base["objects"] = self.objects
            base["routing"] = self.routing
            base["wan_streams"] = self.wan_streams
            base["payload_bytes"] = self.payload_bytes
        else:
            base["objects"] = self.objects
            base["mesh"] = list(self.mesh)
        # Non-default routing knobs affect any kind's run, so they join
        # the key — but only when set, keeping pre-existing cache keys
        # (and trajectory digests) for the classic kinds unchanged.
        if self.kind not in ("collectives", "collectives-ampi"):
            if self.routing != "flat":
                base["routing"] = self.routing
            if self.wan_streams != 0:
                base["wan_streams"] = self.wan_streams
        # Same pattern for the kernel flavour: at its default (numpy
        # kernels) the key material is unchanged, so every pre-existing
        # RunCache digest and BENCH_critpath entry stays valid.
        if self.kernel != "numpy":
            base["kernel"] = self.kernel
        return base

    def label(self) -> str:
        """Short human label for progress lines."""
        if self.kind == "leanmd":
            size = "x".join(map(str, self.cells))
        else:
            size = str(self.objects)
        env = "" if self.environment == "artificial" \
            else f" [{self.environment}]"
        return (f"{self.experiment}/{self.kind} {self.pes}pe x {size} "
                f"@ {self.latency_ms:g}ms{env}")

    # -- execution -------------------------------------------------------

    def run(self) -> ExperimentPoint:
        """Execute this spec and return its measurement row."""
        # Imported here, not at module top: workers unpickle specs
        # before running anything, and the harness pulls in the full
        # application stack.
        from repro.bench import harness

        if self.kind == "stencil":
            return harness.stencil_point(
                self.experiment, self.pes, self.objects, self.latency_ms,
                mesh=self.mesh, steps=self.steps, payload=self.payload,
                environment=self.environment, seed=self.seed,
                kernel=self.kernel)
        if self.kind == "stencil-ampi":
            if self.environment != "artificial":
                raise ValueError(
                    "stencil-ampi runs only in the artificial environment")
            return harness.stencil_ampi_point(
                self.experiment, self.pes, self.objects, self.latency_ms,
                mesh=self.mesh, steps=self.steps, payload=self.payload,
                seed=self.seed)
        if self.kind in ("collectives", "collectives-ampi"):
            return harness.collectives_point(
                self.experiment, self.pes, self.objects, self.latency_ms,
                ampi=(self.kind == "collectives-ampi"),
                routing=self.routing, wan_streams=self.wan_streams,
                payload_bytes=self.payload_bytes, steps=self.steps,
                seed=self.seed)
        return harness.leanmd_point(
            self.experiment, self.pes, self.latency_ms, cells=self.cells,
            atoms_per_cell=self.atoms_per_cell, steps=self.steps,
            payload=self.payload, environment=self.environment,
            seed=self.seed)

    def error_point(self, message: str) -> ExperimentPoint:
        """The row recorded when this spec's run failed.

        ``time_per_step`` is ``inf`` (unambiguously "no measurement",
        and ``inf == inf`` keeps rows comparable in equality tests);
        the failure reason travels in ``extra["error"]``.
        """
        if self.kind == "leanmd":
            objects = self.cells[0] * self.cells[1] * self.cells[2]
        else:
            objects = self.objects
        return ExperimentPoint(
            experiment=self.experiment, app=self.kind,
            environment=self.environment, pes=self.pes, objects=objects,
            latency_ms=self.latency_ms, time_per_step=math.inf,
            steps=self.steps, extra={"error": message})
