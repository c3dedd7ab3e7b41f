"""Non-bonded force kernels: cutoff Lennard-Jones + Coulomb (NumPy).

These are the "electrostatic (and van der Waal's) interactions" of paper
§4, computed between atom sets with minimum-image periodic displacement
and a sharp radial cutoff.

Layout.  Positions enter as contiguous component rows ``(3, n)`` and the
displacement tensor is component-major, ``(3, na, nb)``, so every numpy
inner loop runs along a contiguous row of ``nb`` partners rather than a
length-3 axis.  Only the atom pairs inside the cutoff get the LJ and
Coulomb arithmetic: it runs on the compressed ``np.flatnonzero(mask)``
list, and the force scalars and pair potentials are scattered back into
zero-filled ``(na, nb)`` arrays.  The cell edge equals the cutoff, so a
self pair is mostly inside it while a face, edge or corner neighbour
pair is mostly outside (EXPERIMENTS.md has the shares).

Rounding.  Every output has one fixed rounding order, pinned bit for
bit by ``tests/property/test_kernel_equivalence.py``:

* ``r2 = (dx*dx + dz*dz) + dy*dy``: how numpy's SIMD
  ``einsum("abk,abk->ab")`` rounds a length-3 contraction on x86, as
  ``reference.total_forces`` computes it; the recorded LeanMD digests
  (``benchmarks/e2e/digests.json``) depend on this association;
* each force sum adds the partners one at a time, in partner order,
  onto numpy's +0.0 start: it reduces the outer axis of a contiguous
  partner-major copy (``_partner_sums``), because reducing along a
  contiguous axis would switch numpy to pairwise summation;
* the potential is ``np.sum`` of the dense ``(na, nb)`` pair array.

Newton's third law holds element-wise exactly: the force a set B exerts
on set A and its reaction come from the *same* tensor (sums over ``b``
vs negated sums over ``a``), so each (i, j) contribution cancels its
mirror bit-for-bit; the two *totals* differ only by summation
reassociation (~1e-15 relative).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.leanmd.system import MdParams


def _pairwise(pos_a: np.ndarray, pos_b: np.ndarray, q_a: np.ndarray,
              q_b: np.ndarray, box: np.ndarray, params: MdParams,
              exclude_diagonal: bool) -> Tuple[np.ndarray, float]:
    """Force tensor ``(3, na, nb)`` of B acting on A, and total potential.

    The tensor is the displacement tensor, scaled in place by the
    per-pair force scalar (zero outside the cutoff).
    """
    na, nb = len(pos_a), len(pos_b)
    rows_a = np.ascontiguousarray(pos_a.T)
    rows_b = np.ascontiguousarray(pos_b.T)
    d = rows_a[:, :, None] - rows_b[:, None, :]
    edge = np.reshape(box, (3, 1, 1))
    d -= edge * np.round(d / edge)        # minimum image
    dx, dy, dz = d
    r2 = dx * dx + dz * dz
    r2 += dy * dy                         # (x + z) + y, as einsum rounds

    mask = (r2 < params.cutoff * params.cutoff) & (r2 > 0.0)
    if exclude_diagonal and na == nb:
        np.fill_diagonal(mask, False)
    near = np.flatnonzero(mask)           # the pairs inside the cutoff
    inv_r2 = 1.0 / r2.ravel()[near]

    # Lennard-Jones 12-6.
    s2 = (params.sigma * params.sigma) * inv_r2
    s6 = s2 * s2 * s2
    lj_scalar = 24.0 * params.epsilon * (2.0 * s6 * s6 - s6) * inv_r2
    lj_pot = 4.0 * params.epsilon * (s6 * s6 - s6)

    # Coulomb.
    i, j = np.divmod(near, nb)
    qq = params.coulomb_k * (q_a[i] * q_b[j])
    inv_r = np.sqrt(inv_r2)
    coul_scalar = qq * inv_r * inv_r2
    coul_pot = qq * inv_r

    scalar = np.zeros(na * nb)
    scalar[near] = lj_scalar + coul_scalar
    pair_pot = np.zeros(na * nb)
    pair_pot[near] = lj_pot + coul_pot
    d *= scalar.reshape(na, nb)
    return d, float(np.sum(pair_pot.reshape(na, nb)))


def _partner_sums(tensor: np.ndarray) -> np.ndarray:
    """``(n, 3)`` sums of a ``(partners, 3, n)`` view over its partners.

    The sum runs over a contiguous copy with the partners outermost, so
    numpy adds them one at a time, in order, for any shape; reducing
    along the contiguous axis (``b``, or ``a`` when ``nb == 1``) would
    switch it to pairwise summation.
    """
    return np.ascontiguousarray(tensor).sum(axis=0).T


def pair_forces(pos_a: np.ndarray, pos_b: np.ndarray, q_a: np.ndarray,
                q_b: np.ndarray, box: np.ndarray, params: MdParams
                ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Interactions between two *distinct* cells.

    Returns ``(f_a, f_b, potential)``; momentum is conserved up to
    float reassociation (``f_a.sum(0) ~ -f_b.sum(0)``).  The force
    arrays are ``(n, 3)`` transposed views of component rows.
    """
    tensor, potential = _pairwise(pos_a, pos_b, q_a, q_b, box, params,
                                  exclude_diagonal=False)
    f_a = _partner_sums(tensor.transpose(2, 0, 1))
    f_b = -_partner_sums(tensor.transpose(1, 0, 2))
    return f_a, f_b, potential


def self_forces(pos: np.ndarray, q: np.ndarray, box: np.ndarray,
                params: MdParams) -> Tuple[np.ndarray, float]:
    """Interactions among one cell's own atoms.

    The full ``n x n`` tensor double-counts each (i, j) pair, so the
    potential is halved; per-atom forces come out correct directly.
    """
    tensor, potential = _pairwise(pos, pos, q, q, box, params,
                                  exclude_diagonal=True)
    return _partner_sums(tensor.transpose(2, 0, 1)), 0.5 * potential


def interaction_count(na: int, nb: int, is_self: bool) -> int:
    """Distance evaluations a pair object performs (cost-model input)."""
    if is_self:
        return na * (na - 1) // 2
    return na * nb
