"""Kernel operation cost models.

Every deterministic OS-dependent cost in the performance model is priced
here, so the Linux-vs-McKernel comparison is auditable in one place.
Values are representative microbenchmark magnitudes for the two stacks
(getpid-class syscall latencies, anonymous-fault costs, memset
bandwidth); the paper's results depend on their *ratios* — delegated vs
native syscalls, huge vs base page faults — not the absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..kernel.pagetable import PageKind
from ..units import ns, us


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs of one kernel personality on one platform."""

    name: str
    #: Trap + dispatch + return of a locally-implemented syscall.
    syscall: float
    #: Additional round-trip for a syscall delegated to the Linux proxy
    #: process over IKC (zero for native kernels).
    delegation_overhead: float
    #: Fault handler fixed cost (fault entry, VMA lookup, PTE install).
    fault_fixed: float
    #: Extra fixed cost per fault for huge-page paths (reservation checks,
    #: contiguous-run setup).
    fault_huge_extra: float
    #: Memory zeroing bandwidth for newly-faulted pages, bytes/s.
    zero_bandwidth: float
    #: ioctl into a device driver (on top of ``syscall``).
    ioctl_extra: float

    def __post_init__(self) -> None:
        for field_name in (
            "syscall", "delegation_overhead", "fault_fixed",
            "fault_huge_extra", "ioctl_extra",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{field_name} must be non-negative")
        if self.zero_bandwidth <= 0:
            raise ConfigurationError("zero_bandwidth must be positive")

    # -- composite prices ---------------------------------------------------

    def syscall_cost(self, delegated: bool = False) -> float:
        """One system call; ``delegated`` adds the IKC round trip."""
        return self.syscall + (self.delegation_overhead if delegated else 0.0)

    def page_fault_cost(self, page_bytes: int, kind: PageKind) -> float:
        """One page fault of ``page_bytes`` at granularity ``kind``,
        including zeroing the page."""
        if page_bytes <= 0:
            raise ConfigurationError("page_bytes must be positive")
        fixed = self.fault_fixed
        if kind is not PageKind.BASE:
            fixed += self.fault_huge_extra
        return fixed + page_bytes / self.zero_bandwidth

    def populate_cost(self, nbytes: int, page_bytes: int, kind: PageKind) -> float:
        """Faulting in ``nbytes`` of fresh memory at one page size."""
        if nbytes < 0:
            raise ConfigurationError("nbytes must be non-negative")
        n_faults = -(-nbytes // page_bytes) if nbytes else 0
        return n_faults * self.page_fault_cost(page_bytes, kind)


#: Linux on A64FX / KNL.  RHEL-class numbers: ~600 ns syscall (with
#: mitigations), ~1.1 us anonymous fault, ~12 GB/s single-core memset.
LINUX_COSTS = CostModel(
    name="linux",
    syscall=ns(600.0),
    delegation_overhead=0.0,
    fault_fixed=us(1.1),
    fault_huge_extra=us(1.8),
    zero_bandwidth=12e9,
    ioctl_extra=us(1.2),
)

#: McKernel.  Locally-implemented syscalls and the fault path are leaner
#: (purpose-built memory manager, no cgroup/LRU bookkeeping); everything
#: else pays the ~2.6 us IKC delegation round trip measured for
#: IHK/McKernel-class offloading.
MCKERNEL_COSTS = CostModel(
    name="mckernel",
    syscall=ns(280.0),
    delegation_overhead=us(2.6),
    fault_fixed=ns(550.0),
    fault_huge_extra=ns(700.0),
    zero_bandwidth=12e9,
    ioctl_extra=us(1.2),
)
