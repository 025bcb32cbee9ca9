"""LQCD — lattice QCD linear solver (CCS QCD / QWS).

"Benchmarks the performance of a linear equation solver with a large
sparse coefficient matrix ... solves the equation for the O(a)-improved
Wilson-Dirac quarks using the BiCGStab algorithm" [25].  One of the
Fugaku priority applications with platform-optimised versions for both
machines (artifact: fiber-miniapp/ccs-qcd on x86, RIKEN-LQCD/qws on
A64FX).

OS-interaction profile: weak scaling, BiCGStab iterations with halo
exchange + two global reductions per iteration, negligible heap churn,
lattice fits comfortably in large-page TLB reach.  Paper geometry:
OFP 4 ranks x 32 threads; Fugaku 4 x 12.  Results: up to ~25% McKernel
gain at 2k nodes on OFP (Fig. 6a); "almost identical" on Fugaku
(Fig. 7a).
"""

from __future__ import annotations

from ..units import mib
from .base import InitPhase, RankGeometry, WorkloadProfile


def profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="LQCD",
        description="Wilson-Dirac BiCGStab solver, weak scaling",
        scaling="weak",
        reference_nodes=16,
        sync_interval=5e-3,
        iterations=1600,
        collective="halo+allreduce",
        msg_bytes=96 * 1024,
        churn_bytes=0,
        working_set=mib(240),
        refs_per_second=2.0e7,
        locality=0.985,
        init=InitPhase(compute=1.0, io_syscalls=80,
                       reg_count=64, reg_bytes_each=mib(6)),
        geometry={"x86_64": RankGeometry(4, 32)},
        variability=0.006,
    )
