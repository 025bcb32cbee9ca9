"""GeoFEM — 3D linear elasticity by parallel FEM (ICCG solver).

"Solves 3D linear elasticity problems in simple cube geometries ...
Conjugate Gradient solver preconditioned by Incomplete Cholesky
Factorization (ICCG) ... Additive Schwartz Domain Decomposition" [34].
Source obtained directly from Prof. Nakajima (not public).

OS-interaction profile: weak scaling, long ICCG sweeps between
reductions (large sync interval — forward/backward substitution is
serial-ish per block), moderate heap churn from preconditioner work
arrays.  The paper observed *large run-to-run variation even under
McKernel* ("we believe this could be related to the fact that different
measurements run on different nodes") — hence the big ``variability``.
Paper geometry: OFP 16 ranks x 8 threads; Fugaku 4 x 12.  Results: up
to ~6% gain at full-scale OFP (Fig. 6b), ~3% on Fugaku (Fig. 7b).
"""

from __future__ import annotations

from ..units import mib
from .base import InitPhase, RankGeometry, WorkloadProfile


def profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="GeoFEM",
        description="3D elasticity FEM with ICCG solver, weak scaling",
        scaling="weak",
        reference_nodes=16,
        sync_interval=60e-3,
        iterations=250,
        collective="allreduce",
        msg_bytes=48 * 1024,
        # The OFP-optimised build reuses its work arrays (no churn); the
        # Fugaku port reallocates preconditioner arrays per solver pass.
        churn_bytes=0,
        churn_override={"aarch64": mib(32)},
        working_set=mib(280),
        refs_per_second=2.0e7,
        locality=0.98,
        init=InitPhase(compute=3.0, io_syscalls=400,
                       reg_count=96, reg_bytes_each=mib(4)),
        geometry={"x86_64": RankGeometry(16, 8)},
        variability=0.025,
    )
