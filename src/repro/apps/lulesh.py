"""LULESH — Livermore Unstructured Lagrangian Explicit Shock
Hydrodynamics proxy app (CORAL suite).

OS-interaction profile: weak scaling with **heavy per-iteration heap
churn** — LULESH allocates and releases temporary element/nodal arrays
every timestep, and glibc returns them to the kernel, so Linux re-pays
page faults (at base-page granularity under THP, until khugepaged
catches up) plus TLB shootdowns every iteration, while McKernel's LWK
heap retains the memory.  The paper: "the improvement of Lulesh mainly
stems from heap management issues in Linux" [14], with McKernel
reaching ~2x at scale (Fig. 5c).
"""

from __future__ import annotations

from ..units import mib
from .base import InitPhase, RankGeometry, WorkloadProfile


def profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="Lulesh",
        description="shock hydrodynamics with per-step heap churn (CORAL)",
        scaling="weak",
        reference_nodes=8,
        sync_interval=12e-3,
        iterations=500,
        collective="allreduce",
        msg_bytes=32 * 1024,
        churn_bytes=mib(12),
        working_set=mib(220),
        refs_per_second=2.0e7,
        locality=0.98,
        init=InitPhase(compute=1.0, io_syscalls=60,
                       reg_count=32, reg_bytes_each=mib(4)),
        geometry={"x86_64": RankGeometry(8, 32)},
        variability=0.01,
    )
