"""Pin a few rows of every paper artefact by digest.

The paper benchmarks assert shapes only (trend agreement, knees), so a
change could move every number inside those shapes and still pass.
Each case here runs a small subset of one ``specs_*`` builder through
``run_sweep`` at 2 steps and hashes its rows' virtual results.  A change
that moves a result on purpose updates the digest and lists the old and
new rows in CHANGES.md.

Only artificial-latency rows are pinned: the TeraGrid model's jitter
passes its random draws through ``np.exp``, whose last bit is not known
to be the same on every host.  ``float()`` keeps the digest off numpy's
scalar ``repr``, which numpy 2.0 changed.
"""

import hashlib

import pytest

from repro.bench.executor import run_sweep
from repro.bench.sweep import (
    specs_fig3,
    specs_fig3_collectives,
    specs_fig4,
    specs_table1,
    specs_table2,
)

STEPS = 2


def _artificial(specs):
    return [s for s in specs if s.environment == "artificial"]


#: artefact -> (sha256 of its rows at 2 steps, spec subset builder)
CASES = {
    "table1": (
        "ed93d7a223f8bc2675983ea40f8214a5aabba6bc9a0890c7369ae59c64c7f633",
        lambda: _artificial(specs_table1(rows=[(2, 16), (8, 64)],
                                         steps=STEPS))),
    "fig3": (
        "9014d3e3f8fe4c25e3a2dfe81d01538b627635a72ea3cce2d96912fe39c19e60",
        lambda: specs_fig3(panels=[4], latencies_ms=[0.0, 8.0],
                           steps=STEPS)),
    "fig3c": (
        "e7d552f67c8a5c3bd19e0da1c3022978f5dd8e33638030daf5b83659fa0438b9",
        lambda: specs_fig3_collectives(latencies_ms=[0.0, 8.0],
                                       steps=STEPS)),
    "fig4": (
        "da132cebf196c0f1d10cef64fee9637b3b8d41c938fd4e5843aa13f5457841da",
        lambda: specs_fig4(pe_counts=[4], latencies_ms=[1.0, 64.0],
                           steps=STEPS)),
    "table2": (
        "d914d033fe0b9490098f9eb06f1c016044476bfe61cdf3cdfaf744548d9eb1d2",
        lambda: _artificial(specs_table2(pe_counts=[4], steps=STEPS))),
}


def rows_digest(rows):
    key = repr([(p.experiment, p.app, p.environment, p.pes, p.objects,
                 p.latency_ms, repr(float(p.time_per_step)))
                for p in rows])
    return hashlib.sha256(key.encode()).hexdigest()


@pytest.mark.parametrize("artefact", sorted(CASES))
def test_artefact_rows_pinned(artefact):
    expected, build = CASES[artefact]
    rows = run_sweep(build())
    assert all("error" not in p.extra for p in rows)
    assert rows_digest(rows) == expected
