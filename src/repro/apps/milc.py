"""Milc — MIMD Lattice Computation QCD code (CORAL suite).

"Simulations of four dimensional SU(3) lattice gauge theory" [35].
OS-interaction profile: weak scaling, tight conjugate-gradient
iterations with 4-D halo exchanges plus global sums — a shorter sync
interval than AMG, hence more noise-sensitive.  OFP only; McKernel
gains up to ~22%, growing with scale (Fig. 5b).
"""

from __future__ import annotations

from ..units import mib
from .base import InitPhase, RankGeometry, WorkloadProfile


def profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="Milc",
        description="SU(3) lattice gauge theory CG solver, weak scaling (CORAL)",
        scaling="weak",
        reference_nodes=16,
        sync_interval=15e-3,
        iterations=600,
        collective="halo+allreduce",
        msg_bytes=128 * 1024,
        churn_bytes=0,
        working_set=mib(260),
        refs_per_second=2.5e7,
        locality=0.98,
        init=InitPhase(compute=1.5, io_syscalls=120,
                       reg_count=48, reg_bytes_each=mib(8)),
        geometry={"x86_64": RankGeometry(16, 16)},
        variability=0.008,
    )
