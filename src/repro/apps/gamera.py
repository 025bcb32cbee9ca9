"""GAMERA — implicit nonlinear seismic wave propagation (unstructured
low-order FEM, multigrid + mixed-precision CG, matrix-free SpMV).

Received as binary executables from the maintainer (Dr. Fujita); the
profile is constructed from the paper's description and observed OS
sensitivities.

OS-interaction profile: **strong scaling over three application steps**
whose solver re-registers a large RDMA communication surface per
multigrid level and step.  On Fugaku the paper measured McKernel up to
29% ahead at 8k nodes, "significantly better in the first step (out of
three)", with "faster RDMA registration in McKernel due to the LWK
integrated Tofu driver" suspected as a main contributor (§6.4) — under
strong scaling the fixed registration cost grows into the shrinking
compute time, which this profile reproduces.  On OFP, gains (>25% at
half scale, Fig. 6c) are noise-amplification dominated instead, because
THP's compound pages make Linux registration cheap there (see
:mod:`repro.net.rdma`).
"""

from __future__ import annotations

from ..units import gib, mib
from .base import InitPhase, RankGeometry, WorkloadProfile


def profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="GAMERA",
        description="implicit seismic FEM, strong scaling, 3 steps, "
                    "registration-heavy init",
        scaling="strong",
        reference_nodes=1024,
        sync_interval=30e-3,
        iterations=200,
        steps=3,
        collective="halo+allreduce",
        msg_bytes=256 * 1024,
        churn_bytes=mib(8),
        working_set=mib(1400),
        refs_per_second=2.0e7,
        locality=0.98,
        init=InitPhase(
            compute=4.0,
            io_syscalls=600,
            # The communication surface: 512 regions x 16 MiB = 8 GiB
            # per rank, re-registered per multigrid level and step (6x).
            reg_count=512,
            reg_bytes_each=mib(16),
            reg_repeats=6,
        ),
        geometry={"x86_64": RankGeometry(8, 8)},
        variability=0.012,
    )
