"""Parameter sweeps reproducing each figure/table of the paper.

Each ``specs_*`` function builds the declarative
:class:`~repro.bench.specs.RunSpec` list for one artefact, and its
signature holds that artefact's default step count.
``run_sweep(specs_*(...), jobs=..., cache=...)``
(:mod:`repro.bench.executor`) realizes the list and returns the
:class:`~repro.bench.records.ExperimentPoint` rows that the matching
rendering in :mod:`repro.bench.tables` / :mod:`repro.bench.figures`
consumes; ``repro sweep`` is the same path from the shell.  Passing
``jobs`` fans the runs out over a process pool; passing a
:class:`~repro.bench.cache.RunCache` serves repeated configurations
from disk.  Results are identical (bit-for-bit) for any ``jobs``.

The configurations mirror the paper exactly:

* Figure 3: 2048x2048 stencil, PEs in {2,...,64}, per-panel object
  counts, one-way latency swept 0-32 ms;
* Table 1: the 18 (PEs, objects) rows at the TeraGrid latency, both
  environments;
* Figure 4: LeanMD, latency 1-256 ms, PEs in {2,...,64};
* Table 2: LeanMD, both environments, PEs in {2,...,64}.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import TERAGRID_ONE_WAY_MS
from repro.bench.specs import RunSpec

#: Paper Figure 3: which virtualization degrees appear in which panel.
FIG3_PANEL_OBJECTS: Dict[int, Tuple[int, ...]] = {
    2: (4, 16, 64),
    4: (4, 16, 64),
    8: (16, 64, 256),
    16: (16, 64, 256),
    32: (64, 256, 1024),
    64: (64, 256, 1024),
}

#: Latency grid for Figure 3 (one-way, ms): 0-32 as in the paper.
FIG3_LATENCIES_MS: Tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Paper Table 1's row set: (PEs, objects).
TABLE1_ROWS: Tuple[Tuple[int, int], ...] = (
    (2, 4), (2, 16), (2, 64),
    (4, 4), (4, 16), (4, 64),
    (8, 16), (8, 64), (8, 256),
    (16, 16), (16, 64), (16, 256),
    (32, 64), (32, 256), (32, 1024),
    (64, 64), (64, 256), (64, 1024),
)

#: Figure 4's latency grid (one-way, ms): 1-256, powers of two.
FIG4_LATENCIES_MS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
                                        64.0, 128.0, 256.0)

#: Processor counts common to all experiments.
PE_COUNTS: Tuple[int, ...] = (2, 4, 8, 16, 32, 64)

#: Figure 3c (collective-routing panel): the compared variants as
#: ``(label, routing, wan_streams)``.  All three share the paced-stream
#: WAN model so the comparison isolates routing + striping, not the
#: contention model itself.
FIG3C_VARIANTS: Tuple[Tuple[str, str, int], ...] = (
    ("flat", "flat", 1),
    ("hier", "hierarchical", 1),
    ("hier+striped", "hierarchical", 4),
)

#: Figure 3c machine/virtualization sizes (kept modest: the panel is
#: about routing ratios, not scale).
FIG3C_PES = 8
FIG3C_OBJECTS = 64          # chare workers
FIG3C_RANKS = 16            # AMPI ranks


# -- spec builders (pure, no side effects) ------------------------------------

def specs_fig3(panels: Optional[Sequence[int]] = None,
               latencies_ms: Sequence[float] = FIG3_LATENCIES_MS,
               steps: int = 10) -> List[RunSpec]:
    """Specs for all points of Figure 3 (optionally a panel subset)."""
    out: List[RunSpec] = []
    for pes in (panels if panels is not None else PE_COUNTS):
        for objects in FIG3_PANEL_OBJECTS[pes]:
            for lat in latencies_ms:
                out.append(RunSpec(kind="stencil", experiment="fig3",
                                   pes=pes, objects=objects,
                                   latency_ms=lat, steps=steps))
    return out


def specs_fig3_collectives(latencies_ms: Sequence[float] = FIG3_LATENCIES_MS,
                           steps: int = 8) -> List[RunSpec]:
    """Specs for Figure 3c: flat vs hierarchical vs hierarchical+striped
    collective routing, chare and AMPI flavours, over the 0-32 ms sweep.
    """
    out: List[RunSpec] = []
    for kind, objects in (("collectives", FIG3C_OBJECTS),
                          ("collectives-ampi", FIG3C_RANKS)):
        for _label, routing, streams in FIG3C_VARIANTS:
            for lat in latencies_ms:
                out.append(RunSpec(kind=kind, experiment="fig3c",
                                   pes=FIG3C_PES, objects=objects,
                                   latency_ms=lat, steps=steps,
                                   routing=routing, wan_streams=streams))
    return out


def specs_table1(rows: Sequence[Tuple[int, int]] = TABLE1_ROWS,
                 steps: int = 10, seed: int = 0) -> List[RunSpec]:
    """Specs for Table 1: artificial vs TeraGrid, row by row.

    As in the original eager sweep, *seed* applies to the TeraGrid
    (jittered) runs only; artificial-latency runs are seed-independent
    and always use the default.
    """
    out: List[RunSpec] = []
    for pes, objects in rows:
        out.append(RunSpec(kind="stencil", experiment="table1", pes=pes,
                           objects=objects,
                           latency_ms=TERAGRID_ONE_WAY_MS, steps=steps))
        out.append(RunSpec(kind="stencil", experiment="table1", pes=pes,
                           objects=objects,
                           latency_ms=TERAGRID_ONE_WAY_MS, steps=steps,
                           environment="teragrid", seed=seed))
    return out


def specs_fig4(pe_counts: Sequence[int] = PE_COUNTS,
               latencies_ms: Sequence[float] = FIG4_LATENCIES_MS,
               steps: int = 8) -> List[RunSpec]:
    """Specs for all points of Figure 4 (LeanMD latency sweep)."""
    return [RunSpec(kind="leanmd", experiment="fig4", pes=pes,
                    latency_ms=lat, steps=steps)
            for pes in pe_counts for lat in latencies_ms]


def specs_table2(pe_counts: Sequence[int] = PE_COUNTS,
                 steps: int = 8, seed: int = 0) -> List[RunSpec]:
    """Specs for Table 2: LeanMD, artificial vs TeraGrid, per PE count."""
    out: List[RunSpec] = []
    for pes in pe_counts:
        out.append(RunSpec(kind="leanmd", experiment="table2", pes=pes,
                           latency_ms=TERAGRID_ONE_WAY_MS, steps=steps))
        out.append(RunSpec(kind="leanmd", experiment="table2", pes=pes,
                           latency_ms=TERAGRID_ONE_WAY_MS, steps=steps,
                           environment="teragrid", seed=seed))
    return out
