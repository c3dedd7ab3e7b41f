"""Grid environment configuration (the paper's two testbeds)."""

from repro.grid.environment import GridEnvironment
from repro.grid.presets import (
    artificial_latency_env,
    lossy_wan_env,
    single_cluster_env,
    teragrid_env,
)
from repro.grid.teragrid import DEFAULT_TERAGRID, TeraGridWanModel

__all__ = [
    "GridEnvironment",
    "artificial_latency_env",
    "lossy_wan_env",
    "teragrid_env",
    "single_cluster_env",
    "TeraGridWanModel",
    "DEFAULT_TERAGRID",
]
