"""Hypothesis equivalence properties: numpy block kernels vs references.

ISSUE 10's kernel satellite: the vectorized block kernels that replaced
the per-cell Python inner loops must be **bit-identical** (stencil) or
reassociation-tight (LeanMD) to ``reference.py`` on arbitrary — odd,
lopsided, tiny — shapes, and across ghost depths beyond one.  The LeanMD
kernel is also pinned bit for bit to a dense ``(na, nb, 3)`` oracle
whose rounding order is spelled out below.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.leanmd.forces import pair_forces, self_forces
from repro.apps.leanmd.reference import (
    pair_forces_percell,
    self_forces_percell,
)
from repro.apps.leanmd.system import MdParams
from repro.apps.stencil.deep_ghost import deep_jacobi_phase
from repro.apps.stencil.kernel import (
    jacobi_step,
    jacobi_step_into,
    make_initial_mesh,
)
from repro.apps.stencil.reference import (
    jacobi_step_percell,
    run_reference,
)

KERNEL_SETTINGS = dict(max_examples=40, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


@given(
    rows=st.integers(min_value=3, max_value=41),
    cols=st.integers(min_value=3, max_value=41),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(**KERNEL_SETTINGS)
def test_block_kernels_bitwise_equal_on_any_shape(rows, cols, seed):
    """Expression form, in-place form and per-cell reference agree bit
    for bit on arbitrary padded shapes (odd, even, extreme aspect)."""
    rng = np.random.default_rng(seed)
    padded = rng.random((rows, cols))
    expected = jacobi_step(padded)
    out = np.empty((rows - 2, cols - 2))
    assert np.array_equal(jacobi_step_into(padded, out), expected)
    assert np.array_equal(jacobi_step_percell(padded), expected)


@given(
    rows=st.integers(min_value=11, max_value=29),
    cols=st.integers(min_value=11, max_value=29),
    depth=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(**KERNEL_SETTINGS)
def test_deep_ghost_phase_bitwise_equals_plain_steps(rows, cols, depth,
                                                     seed):
    """One deep-halo phase of ``depth`` sub-steps on a whole mesh equals
    ``depth`` plain reference steps, bit for bit, at any depth."""
    mesh = make_initial_mesh(rows, cols, seed)
    padded = mesh.copy()
    fixed = (mesh[0, :].copy(), mesh[-1, :].copy(),
             mesh[:, 0].copy(), mesh[:, -1].copy())

    def apply_fixed():
        padded[0, :], padded[-1, :] = fixed[0], fixed[1]
        padded[:, 0], padded[:, -1] = fixed[2], fixed[3]

    deep_jacobi_phase(padded, depth, apply_fixed)
    # On a whole mesh the shrinking valid window only ever touches
    # cells whose neighbours are Dirichlet-pinned, so the interior
    # matches depth plain steps exactly.
    expected = run_reference(mesh, depth)
    assert np.array_equal(padded[depth:-depth, depth:-depth],
                          expected[depth:-depth, depth:-depth])


@given(
    na=st.integers(min_value=1, max_value=10),
    nb=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(**KERNEL_SETTINGS)
def test_leanmd_pair_kernel_matches_percell(na, nb, seed):
    """Vectorized cell-pair forces equal the scalar double loop within
    summation-reassociation tolerance, for any pair of cell sizes."""
    rng = np.random.default_rng(seed)
    params = MdParams()
    box = np.array([5.0, 5.0, 5.0])
    pos_a = rng.random((na, 3)) * 5.0
    pos_b = rng.random((nb, 3)) * 5.0
    q_a = rng.uniform(-1.0, 1.0, size=na)
    q_b = rng.uniform(-1.0, 1.0, size=nb)
    f_a, f_b, pot = pair_forces(pos_a, pos_b, q_a, q_b, box, params)
    r_a, r_b, r_pot = pair_forces_percell(pos_a, pos_b, q_a, q_b, box,
                                          params)
    np.testing.assert_allclose(f_a, r_a, rtol=1e-10, atol=1e-8)
    np.testing.assert_allclose(f_b, r_b, rtol=1e-10, atol=1e-8)
    np.testing.assert_allclose(pot, r_pot, rtol=1e-10, atol=1e-10)


@given(
    n=st.integers(min_value=1, max_value=14),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(**KERNEL_SETTINGS)
def test_leanmd_self_kernel_matches_percell(n, seed):
    """Vectorized intra-cell forces equal the scalar pair loop."""
    rng = np.random.default_rng(seed)
    params = MdParams()
    box = np.array([5.0, 5.0, 5.0])
    pos = rng.random((n, 3)) * 5.0
    q = rng.uniform(-1.0, 1.0, size=n)
    f, pot = self_forces(pos, q, box, params)
    r_f, r_pot = self_forces_percell(pos, q, box, params)
    np.testing.assert_allclose(f, r_f, rtol=1e-10, atol=1e-8)
    np.testing.assert_allclose(pot, r_pot, rtol=1e-10, atol=1e-10)


# -- LeanMD kernel bits: dense (na, nb, 3) oracle -----------------------------

#: What numpy's add-reduction starts from: +0.0 if it starts from the
#: identity (a row of -0.0 terms then sums to +0.0), -0.0 if it starts
#: from the first term (-0.0 + t == t for every t).
REDUCE_START = np.add.reduce(np.array([-0.0]))


def _dense_oracle(pos_a, pos_b, q_a, q_b, box, params, exclude_diagonal):
    """Force tensor ``(na, nb, 3)``, potential and cutoff mask.

    Element-wise the same arithmetic as ``forces._pairwise``, on the
    dense atom-major layout, with ``r2`` associated as the kernel's.
    """
    d = pos_a[:, None, :] - pos_b[None, :, :]
    d -= box * np.round(d / box)
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    r2 = (dx * dx + dz * dz) + dy * dy
    mask = (r2 < params.cutoff * params.cutoff) & (r2 > 0.0)
    if exclude_diagonal:
        np.fill_diagonal(mask, False)
    inv_r2 = np.where(mask, 1.0 / np.where(r2 > 0.0, r2, 1.0), 0.0)
    s2 = (params.sigma * params.sigma) * inv_r2
    s6 = s2 * s2 * s2
    lj_scalar = 24.0 * params.epsilon * (2.0 * s6 * s6 - s6) * inv_r2
    lj_pot = 4.0 * params.epsilon * (s6 * s6 - s6)
    qq = params.coulomb_k * np.outer(q_a, q_b)
    inv_r = np.sqrt(inv_r2)
    coul_scalar = qq * inv_r * inv_r2
    coul_pot = qq * inv_r
    scalar = np.where(mask, lj_scalar + coul_scalar, 0.0)
    potential = float(np.sum(np.where(mask, lj_pot + coul_pot, 0.0)))
    return scalar[:, :, None] * d, potential, mask


def _partner_sums(tensor):
    """``(n, 3)`` sums over axis 1, one partner at a time, in order."""
    total = np.full((tensor.shape[0], 3), REDUCE_START)
    for j in range(tensor.shape[1]):
        total = total + tensor[:, j, :]
    return total


def _bit_equal(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@given(
    na=st.integers(min_value=1, max_value=70),
    nb=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=1000),
    layout=st.sampled_from(["uniform", "apart", "packed"]),
    coincident=st.booleans(),
)
@example(na=70, nb=70, seed=0, layout="apart", coincident=False)
@example(na=70, nb=70, seed=1, layout="packed", coincident=False)
@example(na=9, nb=4, seed=2, layout="uniform", coincident=True)
@example(na=37, nb=1, seed=0, layout="packed", coincident=False)
@settings(**KERNEL_SETTINGS)
def test_leanmd_kernels_bitwise_equal_dense_oracle(na, nb, seed, layout,
                                                   coincident):
    """``pair_forces`` and ``self_forces`` equal the dense oracle bit for
    bit (signs of zero included), potentials ``repr``-equal."""
    rng = np.random.default_rng(seed)
    params = MdParams()
    box = np.array([5.0, 5.0, 5.0])
    # "uniform": anywhere in the box.  "packed": every atom in one 0.3
    # cube, so every distinct atom pair is inside the unit cutoff.
    # "apart": B's cube 2 further along each axis, so none is.
    spread = 5.0 if layout == "uniform" else 0.3
    pos_a = rng.random((na, 3)) * spread
    pos_b = rng.random((nb, 3)) * spread + (2.0 if layout == "apart" else 0.0)
    if coincident:
        # Atoms 0 and -1 of A coincide (r2 == 0 off the self pair's
        # diagonal); unless the sets are apart, so do A[0] and B[0].
        pos_a[-1] = pos_a[0]
        if layout != "apart":
            pos_b[0] = pos_a[0]
    q_a = rng.uniform(-1.0, 1.0, size=na)
    q_b = rng.uniform(-1.0, 1.0, size=nb)

    tensor, potential, mask = _dense_oracle(pos_a, pos_b, q_a, q_b, box,
                                            params, exclude_diagonal=False)
    if layout == "apart":
        assert not mask.any()
    elif layout == "packed" and not coincident:
        assert mask.all()
    f_a, f_b, pot = pair_forces(pos_a, pos_b, q_a, q_b, box, params)
    assert _bit_equal(f_a, _partner_sums(tensor))
    assert _bit_equal(f_b, -_partner_sums(tensor.transpose(1, 0, 2)))
    assert repr(pot) == repr(potential)

    tensor, potential, _ = _dense_oracle(pos_a, pos_a, q_a, q_a, box,
                                         params, exclude_diagonal=True)
    f, pot = self_forces(pos_a, q_a, box, params)
    assert _bit_equal(f, _partner_sums(tensor))
    assert repr(pot) == repr(0.5 * potential)
