"""AMG2013 — parallel algebraic multigrid solver (CORAL suite).

"A parallel algebraic multigrid solver for linear systems arising from
problems on unstructured grids" [21].  OS-interaction profile: weak
scaling, allreduce-dominated V-cycles (dot products in the smoother),
moderate working set, light heap churn from level setup.  The paper
runs it only on OFP (no A64FX-optimised build): McKernel gains up to
~18%, slightly rising with node count (Fig. 5a).
"""

from __future__ import annotations

from ..units import mib
from .base import InitPhase, RankGeometry, WorkloadProfile


def profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="AMG2013",
        description="algebraic multigrid V-cycles, weak scaling (CORAL)",
        scaling="weak",
        reference_nodes=16,
        sync_interval=25e-3,
        iterations=400,
        collective="allreduce",
        msg_bytes=64 * 1024,
        churn_bytes=mib(0.5),
        working_set=mib(300),
        refs_per_second=2.0e7,
        locality=0.98,
        init=InitPhase(compute=2.0, io_syscalls=200,
                       reg_count=64, reg_bytes_each=mib(4)),
        geometry={"x86_64": RankGeometry(16, 16)},
        variability=0.008,
    )
