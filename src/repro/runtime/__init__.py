"""Runtime layer: batch jobs and the experiment runner."""

from .job import (
    BatchSystem,
    ContainerSpec,
    Job,
    OsChoice,
    ProvisionedJob,
)
from .linuxsim import NodeSimResult, SimCore, simulate_linux_node_fwq
from .nodesim import (
    BspSimResult,
    NoisyCore,
    simulate_bsp,
    validate_against_sampler,
)
from .runner import AppRunner, Breakdown, Comparison, RunResult, compare

__all__ = [
    "NodeSimResult",
    "SimCore",
    "simulate_linux_node_fwq",
    "BspSimResult",
    "NoisyCore",
    "simulate_bsp",
    "validate_against_sampler",
    "BatchSystem",
    "ContainerSpec",
    "Job",
    "OsChoice",
    "ProvisionedJob",
    "AppRunner",
    "Breakdown",
    "Comparison",
    "RunResult",
    "compare",
]
