"""Runtime layer: batch jobs and the experiment runner."""

from .batchsched import OsChoice
from .linuxsim import NodeSimResult, SimCore, simulate_linux_node_fwq
from .nodesim import (
    BspSimResult,
    NoisyCore,
    simulate_bsp,
    validate_against_sampler,
)
from .runner import AppRunner, Breakdown, Comparison, RunResult

__all__ = [
    "NodeSimResult",
    "SimCore",
    "simulate_linux_node_fwq",
    "BspSimResult",
    "NoisyCore",
    "simulate_bsp",
    "validate_against_sampler",
    "OsChoice",
    "AppRunner",
    "Breakdown",
    "Comparison",
    "RunResult",
]
