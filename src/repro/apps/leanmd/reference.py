"""Sequential O(N^2) reference for LeanMD.

Computes every atom's net force by direct summation over all atoms
(minimum-image, same cutoff, same kernels' mathematics) and integrates
with the same kick-drift step.  Used by the validation tests on small
systems: the parallel cell/cell-pair decomposition must agree to within
floating-point reassociation tolerance, step after step, at any latency
and mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.leanmd.system import MdParams, MdSystem


@dataclass
class ReferenceTrajectory:
    """Output of :func:`run_reference`."""

    positions: np.ndarray      # (n, 3) final
    velocities: np.ndarray     # (n, 3) final
    kinetic: List[float]       # per step, after integration
    potential: List[float]     # per step, at pre-update positions


def total_forces(positions: np.ndarray, charges: np.ndarray,
                 box: np.ndarray, params: MdParams
                 ) -> Tuple[np.ndarray, float]:
    """All-pairs cutoff forces and total potential (direct summation)."""
    d = positions[:, None, :] - positions[None, :, :]
    d -= box * np.round(d / box)
    r2 = np.einsum("abk,abk->ab", d, d)
    mask = (r2 < params.cutoff * params.cutoff) & (r2 > 0.0)
    np.fill_diagonal(mask, False)
    inv_r2 = np.where(mask, 1.0 / np.where(r2 > 0.0, r2, 1.0), 0.0)

    s2 = (params.sigma * params.sigma) * inv_r2
    s6 = s2 * s2 * s2
    lj_scalar = 24.0 * params.epsilon * (2.0 * s6 * s6 - s6) * inv_r2
    lj_pot = 4.0 * params.epsilon * (s6 * s6 - s6)

    qq = params.coulomb_k * np.outer(charges, charges)
    inv_r = np.sqrt(inv_r2)
    coul_scalar = qq * inv_r * inv_r2
    coul_pot = qq * inv_r

    scalar = np.where(mask, lj_scalar + coul_scalar, 0.0)
    forces = (scalar[:, :, None] * d).sum(axis=1)
    potential = 0.5 * float(np.sum(np.where(mask, lj_pot + coul_pot, 0.0)))
    return forces, potential


def _scalar_interaction(dx: float, dy: float, dz: float, qq: float,
                        params: MdParams) -> Tuple[float, float]:
    """Force scalar and potential of one (i, j) pair in Python floats."""
    r2 = dx * dx + dy * dy + dz * dz
    if not (0.0 < r2 < params.cutoff * params.cutoff):
        return 0.0, 0.0
    inv_r2 = 1.0 / r2
    s2 = (params.sigma * params.sigma) * inv_r2
    s6 = s2 * s2 * s2
    lj_scalar = 24.0 * params.epsilon * (2.0 * s6 * s6 - s6) * inv_r2
    lj_pot = 4.0 * params.epsilon * (s6 * s6 - s6)
    inv_r = inv_r2 ** 0.5
    coul_scalar = qq * inv_r * inv_r2
    coul_pot = qq * inv_r
    return lj_scalar + coul_scalar, lj_pot + coul_pot


def pair_forces_percell(pos_a: np.ndarray, pos_b: np.ndarray,
                        q_a: np.ndarray, q_b: np.ndarray, box: np.ndarray,
                        params: MdParams
                        ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Per-atom scalar version of :func:`~repro.apps.leanmd.forces.pair_forces`.

    The ground truth the vectorized block kernel is validated against: a
    plain double loop over (i, j) atom pairs with minimum-image applied
    per component.  Agreement with the component-major, in-cutoff-only
    block kernel is up to reassociation only (``r2``, the charge product
    and the potential sum associate differently there), which the
    equivalence tests bound tightly.
    """
    bx, by, bz = (float(box[0]), float(box[1]), float(box[2]))
    f_a = np.zeros_like(pos_a)
    f_b = np.zeros_like(pos_b)
    potential = 0.0
    a = pos_a.tolist()
    b = pos_b.tolist()
    for i, (axi, ayi, azi) in enumerate(a):
        for j, (bxj, byj, bzj) in enumerate(b):
            dx = axi - bxj
            dy = ayi - byj
            dz = azi - bzj
            dx -= bx * round(dx / bx)
            dy -= by * round(dy / by)
            dz -= bz * round(dz / bz)
            qq = params.coulomb_k * float(q_a[i]) * float(q_b[j])
            scalar, pot = _scalar_interaction(dx, dy, dz, qq, params)
            if scalar == 0.0 and pot == 0.0:
                continue
            fx, fy, fz = scalar * dx, scalar * dy, scalar * dz
            f_a[i, 0] += fx
            f_a[i, 1] += fy
            f_a[i, 2] += fz
            f_b[j, 0] -= fx
            f_b[j, 1] -= fy
            f_b[j, 2] -= fz
            potential += pot
    return f_a, f_b, potential


def self_forces_percell(pos: np.ndarray, q: np.ndarray, box: np.ndarray,
                        params: MdParams) -> Tuple[np.ndarray, float]:
    """Per-atom scalar version of :func:`~repro.apps.leanmd.forces.self_forces`.

    Each unordered pair is visited once; Newton's third law is applied
    explicitly, and the potential is counted once per pair (matching the
    halved double-counted tensor sum of the block kernel).
    """
    bx, by, bz = (float(box[0]), float(box[1]), float(box[2]))
    forces = np.zeros_like(pos)
    potential = 0.0
    p = pos.tolist()
    n = len(p)
    for i in range(n):
        axi, ayi, azi = p[i]
        for j in range(i + 1, n):
            dx = axi - p[j][0]
            dy = ayi - p[j][1]
            dz = azi - p[j][2]
            dx -= bx * round(dx / bx)
            dy -= by * round(dy / by)
            dz -= bz * round(dz / bz)
            qq = params.coulomb_k * float(q[i]) * float(q[j])
            scalar, pot = _scalar_interaction(dx, dy, dz, qq, params)
            if scalar == 0.0 and pot == 0.0:
                continue
            fx, fy, fz = scalar * dx, scalar * dy, scalar * dz
            forces[i, 0] += fx
            forces[i, 1] += fy
            forces[i, 2] += fz
            forces[j, 0] -= fx
            forces[j, 1] -= fy
            forces[j, 2] -= fz
            potential += pot
    return forces, potential


def run_reference(system: MdSystem, steps: int) -> ReferenceTrajectory:
    """Advance the whole system *steps* steps sequentially."""
    params = system.params
    box = system.box
    pos = system.all_positions().copy()
    vel = system.all_velocities().copy()
    charges = system.all_charges().copy()

    kinetic: List[float] = []
    potential: List[float] = []
    for _ in range(steps):
        forces, pot = total_forces(pos, charges, box, params)
        vel = vel + (params.dt / params.mass) * forces
        pos = np.mod(pos + params.dt * vel, box)
        kinetic.append(0.5 * params.mass * float(np.sum(vel * vel)))
        potential.append(pot)
    return ReferenceTrajectory(positions=pos, velocities=vel,
                               kinetic=kinetic, potential=potential)
