"""Whole-run trajectory checks on the discrete-event engine.

The stencil's two compute kernels (``numpy`` blocks and the ``percell``
reference loop) must be interchangeable: the kernel flavour may change
host time only, never a recorded event or a number the run produces.
"""

import numpy as np

from repro.apps.stencil import StencilApp
from repro.grid.presets import multi_cluster_env
from repro.units import ms


def _traced_run(kernel):
    env = multi_cluster_env((2, 2), ms(8.0), seed=0, trace=True)
    result = StencilApp(env, mesh=(24, 24), objects=4, payload="real",
                        gather_mesh=True, kernel=kernel).run(2)
    return env, result


def test_percell_kernel_same_trajectory_and_checksum():
    """Kernel flavour must not leak into the trajectory: percell and
    numpy runs are bit-identical in both virtual time and numerics."""
    numpy_env, numpy_run = _traced_run("numpy")
    percell_env, percell_run = _traced_run("percell")
    assert numpy_env.tracer.intervals
    assert percell_env.tracer.intervals == numpy_env.tracer.intervals
    assert percell_env.tracer.messages == numpy_env.tracer.messages
    assert percell_env.tracer.hops == numpy_env.tracer.hops
    assert (percell_env.engine.events_processed
            == numpy_env.engine.events_processed)
    np.testing.assert_array_equal(percell_run.step_times,
                                  numpy_run.step_times)
    assert percell_run.checksum == numpy_run.checksum
    assert numpy_run.final_mesh is not None
    np.testing.assert_array_equal(percell_run.final_mesh,
                                  numpy_run.final_mesh)
