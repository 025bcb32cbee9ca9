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

import importlib
import sys

from .errors import (
    CacheCorruptionError,
    CgroupLimitExceeded,
    ClaimConflict,
    ConfigurationError,
    FaultError,
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


def _lazy_exports(package: str, exports: "dict[str, str]"):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each re-exported name to the module, relative to
    ``package``, that defines it; a name equal to its module's last
    component is that module itself (a subpackage).  A name is imported
    on first access and then bound in the package like any global, so
    an entry point loads only the modules it touches.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module, package)
        if module.rpartition(".")[2] != name:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> "list[str]":
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


#: Loaded on first access, so ``repro --help`` loads neither numpy nor
#: the model.
_SUBPACKAGES = ("apps", "experiments", "faults", "hardware", "kernel",
                "mckernel", "net", "noise", "perf", "platform", "runtime",
                "sim")
__getattr__, __dir__ = _lazy_exports(__name__, {
    **{name: f".{name}" for name in _SUBPACKAGES},
    "ExecutionEngine": ".engine"})


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
    *_SUBPACKAGES,
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
    "JobRetriesExhausted",
    "CacheCorruptionError",
    "ServiceError",
    "JobNotFoundError",
    "ClaimConflict",
    "JournalCorruptionError",
    "__version__",
]
