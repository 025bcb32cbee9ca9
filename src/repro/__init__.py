"""repro — a simulation-based reproduction of *"Linux vs. Lightweight
Multi-kernels for High Performance Computing: Experiences at
Pre-Exascale"* (Gerofi et al., SC '21).

The package models, in Python, every system the paper's evaluation
touches: the Oakforest-PACS and Fugaku node/system hardware, a tunable
Linux kernel (cgroups, hugeTLBfs, buddy allocator, nohz_full, IRQ
routing, the §4.2 noise countermeasures), the IHK/McKernel lightweight
multi-kernel (resource partitioning, syscall delegation, Tofu
PicoDriver), the OS-noise apparatus (FWQ, Eq. 1/Eq. 2, at-scale tail
models), the network/collective substrate, and BSP profiles of the six
evaluated applications.  ``repro.experiments`` regenerates every table
and figure.

Quickstart::

    from repro import quick_compare
    print(quick_compare("LQCD", platform="fugaku", nodes=2048))

See examples/quickstart.py for a guided tour.
"""

from __future__ import annotations

from . import (
    apps,
    experiments,
    faults,
    hardware,
    kernel,
    mckernel,
    net,
    noise,
    perf,
    platform,
    runtime,
    sim,
)
from .engine import ExecutionEngine
from .errors import (
    CacheCorruptionError,
    CgroupLimitExceeded,
    ClaimConflict,
    ConfigurationError,
    FaultError,
    IkcTimeoutError,
    JobNotFoundError,
    JobRetriesExhausted,
    JournalCorruptionError,
    NodeFailure,
    OutOfMemoryError,
    PartitionError,
    ProxyCrashed,
    ReproError,
    ResourceError,
    ServiceError,
    SimulationError,
    SyscallError,
)

__version__ = "1.0.0"


def quick_compare(app: str, platform: str = "fugaku", nodes: int = 1024,
                  n_runs: int = 3, seed: int = 0):
    """One-call Linux-vs-McKernel comparison.

    Parameters
    ----------
    app:
        One of ``repro.apps.ALL_PROFILES`` ("AMG2013", "Milc", "Lulesh",
        "LQCD", "GeoFEM", "GAMERA").
    platform:
        A registered platform name (``repro.platform.platform_names()``)
        or one of the aliases "fugaku"/"a64fx"/"ofp"/"oakforest"/"knl".
    nodes:
        Job size in compute nodes.

    Returns the :class:`repro.runtime.Comparison` for the requested
    point.
    """
    from .platform import compare_platforms, get_platform

    return compare_platforms(get_platform(platform), app, [nodes],
                             n_runs=n_runs, seed=seed)[0]


__all__ = [
    "apps",
    "experiments",
    "faults",
    "hardware",
    "kernel",
    "mckernel",
    "net",
    "noise",
    "perf",
    "platform",
    "runtime",
    "sim",
    "quick_compare",
    "ExecutionEngine",
    "ReproError",
    "ConfigurationError",
    "ResourceError",
    "OutOfMemoryError",
    "CgroupLimitExceeded",
    "PartitionError",
    "SimulationError",
    "SyscallError",
    "FaultError",
    "NodeFailure",
    "ProxyCrashed",
    "IkcTimeoutError",
    "JobRetriesExhausted",
    "CacheCorruptionError",
    "ServiceError",
    "JobNotFoundError",
    "ClaimConflict",
    "JournalCorruptionError",
    "__version__",
]
