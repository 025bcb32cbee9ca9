"""McKernel — the lightweight co-kernel (§5).

Two layers live here:

* :class:`McKernelInstance` — the booted LWK on one node, implementing
  the :class:`~repro.kernel.base.OsInstance` interface.  Its noise
  profile is the paper's headline property: a tick-less cooperative
  scheduler and *no* background activity, so application cores see
  essentially nothing (the only residual channel is hardware-level TLBI
  broadcast from the Linux side, which the tuned host eliminates).
* :class:`McKernelProcess` — a functional process model: local
  performance-sensitive syscalls operate on the LWK's own memory
  manager; everything else is delegated to the Linux proxy process,
  with the IKC round trip charged per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError, PartitionError, SyscallError
from ..hardware.machines import NodeSpec
from ..hardware.tlb import TlbFlushMode, TlbModel
from ..kernel.base import OsInstance
from ..kernel.buddy import BuddyAllocator
from ..kernel.costmodel import CostModel, MCKERNEL_COSTS
from ..kernel.pagetable import (
    AARCH64_64K,
    AddressSpace,
    PageGeometry,
    PageKind,
    VmaKind,
    X86_4K,
)
from ..kernel.tasks import SystemTask, task_by_name
from ..kernel.tuning import LinuxTuning, fugaku_production
from ..obs.tracer import get_tracer
from .ihk import Ihk, LwkPartition, OsState, reserve_fugaku_style
from .proxy import ProxyProcess
from .syscalls import is_local


class McKernelInstance(OsInstance):
    """The LWK personality booted on an IHK partition."""

    kind = "mckernel"

    def __init__(
        self,
        node: NodeSpec,
        ihk: Ihk,
        partition: LwkPartition,
        host_tuning: Optional[LinuxTuning] = None,
        costs: CostModel = MCKERNEL_COSTS,
        picodriver: bool = True,
    ) -> None:
        if partition.state is not OsState.BOOTED:
            raise PartitionError("partition must be booted before use")
        self.node = node
        self.ihk = ihk
        self.partition = partition
        self.host_tuning = host_tuning or fugaku_production()
        self.costs = costs
        self.picodriver_enabled = picodriver
        # McKernel always flushes locally on the LWK cores; what matters
        # for cross-core noise is the *host's* mode, checked below.
        self.tlb = TlbModel(node.tlb, TlbFlushMode.LOCAL_ONLY)
        self._buddies: dict[float, BuddyAllocator] = {}
        self._next_pid = 1000

    # -- OsInstance: CPU layout ---------------------------------------------

    def app_cpu_ids(self) -> list[int]:
        return sorted(self.partition.cpus)

    def system_cpu_ids(self) -> list[int]:
        return self.ihk.linux_cpus()

    # -- OsInstance: memory ----------------------------------------------------

    def app_page_geometry(self) -> PageGeometry:
        return AARCH64_64K if self.node.arch == "aarch64" else X86_4K

    def app_page_kind(self) -> PageKind:
        """McKernel's memory manager is large-page-first: the biggest
        TLB-efficient unit the ISA offers without fragmentation risk."""
        geo = self.app_page_geometry()
        return PageKind.CONTIG if geo.contig_factor else PageKind.HUGE

    def make_address_space(self, memory_scale: float = 1.0) -> AddressSpace:
        if not 0 < memory_scale <= 1.0:
            raise ConfigurationError("memory_scale must be in (0, 1]")
        buddy = self._buddies.get(memory_scale)
        if buddy is None:
            geo = self.app_page_geometry()
            total = self.partition.total_memory()
            n_pages = max(64, int(total * memory_scale) // geo.base)
            buddy = BuddyAllocator(n_pages)
            self._buddies[memory_scale] = buddy
        return AddressSpace(self.app_page_geometry(), buddy)

    # -- OsInstance: syscalls -----------------------------------------------------

    def syscall_delegated(self, name: str) -> bool:
        return not is_local(name)

    @property
    def rdma_fast_path(self) -> bool:
        return self.picodriver_enabled

    # -- OsInstance: noise -----------------------------------------------------------

    def noise_tasks_on_app_cores(self) -> list[SystemTask]:
        """McKernel "performs absolutely no background activities"
        (§6.3).  The one channel that can still reach LWK cores is the
        *hardware* TLBI broadcast issued by Linux daemons on the
        assistant cores — present only when the host lacks the RHEL
        flush patch."""
        if self.host_tuning.tlb_flush_mode is TlbFlushMode.BROADCAST and (
            self.node.tlb.broadcast_victim_cost > 0
        ):
            # Reuse the calibrated storm statistics from the task catalogue.
            from ..kernel.tasks import standard_task_population

            return [task_by_name(standard_task_population(), "tlbi-broadcast")]
        return []

    def tick_rate_on_app_cores(self) -> float:
        return 0.0  # tick-less by construction

    # -- process management -----------------------------------------------------

    def spawn(self, memory_scale: float = 1.0) -> "McKernelProcess":
        """Create an LWK process together with its Linux proxy."""
        lwk_pid = self._next_pid
        self._next_pid += 1
        proxy = ProxyProcess(pid=lwk_pid + 100000, lwk_pid=lwk_pid)
        return McKernelProcess(
            pid=lwk_pid,
            instance=self,
            address_space=self.make_address_space(memory_scale),
            proxy=proxy,
        )


@dataclass
class McKernelProcess:
    """A process running on McKernel, with delegation bookkeeping."""

    pid: int
    instance: McKernelInstance
    address_space: AddressSpace
    proxy: ProxyProcess
    #: Accumulated syscall time, split by service path.
    local_time: float = 0.0
    delegated_time: float = 0.0
    local_calls: int = 0
    delegated_calls: int = 0
    alive: bool = True

    # -- syscall dispatch -----------------------------------------------------

    def syscall(self, name: str, *args) -> object:
        """Execute one syscall, routing local vs delegated (§5) and
        charging the corresponding cost model price."""
        if not self.alive:
            raise SyscallError("ESRCH", f"process {self.pid} exited")
        costs = self.instance.costs
        tracer = get_tracer()
        # The process's accumulated syscall time is its deterministic
        # clock: each traced call spans [time-so-far, +cost).
        started = self.local_time + self.delegated_time
        if is_local(name):
            self.local_calls += 1
            cost = costs.syscall_cost(delegated=False)
            self.local_time += cost
            if tracer is not None:
                tracer.span("lwk", name, ts=started, duration=cost,
                            actor=f"lwk/{self.pid}", delegated=False)
            return self._serve_local(name, *args)
        self.delegated_calls += 1
        # IKC round trip on top of the Linux-side service cost.
        cost = (
            costs.syscall_cost(delegated=False)
            + self.instance.partition.ikc.round_trip
        )
        self.delegated_time += cost
        if tracer is not None:
            tracer.span("lwk", name, ts=started, duration=cost,
                        actor=f"lwk/{self.pid}", delegated=True)
        return self._serve_delegated(name, *args)

    def _serve_local(self, name: str, *args) -> object:
        if name == "mmap":
            (length,) = args
            vma = self.address_space.mmap(length, kind=VmaKind.HEAP,
                                          page_kind=self.instance.app_page_kind())
            return vma
        if name == "munmap":
            (vma,) = args
            return self.address_space.munmap(vma)
        if name == "getpid":
            return self.pid
        if name == "gettid":
            return self.pid
        if name in ("fork", "vfork"):
            # Full POSIX fork — the facility classic LWKs lacked (§1).
            # The child gets a copy-on-write address space and its own
            # Linux-side proxy twin.
            child_pid = self.instance._next_pid
            self.instance._next_pid += 1
            child = McKernelProcess(
                pid=child_pid,
                instance=self.instance,
                address_space=self.address_space.fork(),
                proxy=ProxyProcess(pid=child_pid + 100000,
                                   lwk_pid=child_pid),
            )
            return child
        # Remaining local syscalls are modelled as successful no-ops:
        # their semantics are not needed by the experiments, only their
        # (already charged) latency.
        return 0

    def _serve_delegated(self, name: str, *args) -> object:
        handler = {
            "open": self.proxy.sys_open,
            "openat": self.proxy.sys_open,
            "close": self.proxy.sys_close,
            "read": self.proxy.sys_read,
            "write": self.proxy.sys_write,
            "lseek": self.proxy.sys_lseek,
            "ioctl": self.proxy.sys_ioctl,
        }.get(name)
        if handler is None:
            # Any other delegated call succeeds generically via the proxy.
            self.proxy._record(name, args, 0)
            return 0
        return handler(*args)

    # -- lifecycle ---------------------------------------------------------------

    def exit(self) -> int:
        """Process exit: LWK tears down the address space (counting TLB
        invalidations) and the proxy dies with it."""
        if not self.alive:
            raise SyscallError("ESRCH", f"process {self.pid} already exited")
        invalidated = self.address_space.exit()
        self.proxy.exit()
        self.alive = False
        return invalidated


def boot_mckernel(
    node: NodeSpec,
    host_tuning: Optional[LinuxTuning] = None,
    memory_fraction: float = 0.9,
    picodriver: bool = True,
) -> McKernelInstance:
    """Convenience: full IHK flow (reserve → create → assign → boot) with
    the paper's deployment shape, returning the booted instance."""
    ihk = Ihk(node)
    partition = reserve_fugaku_style(ihk, memory_fraction)
    return McKernelInstance(
        node=node,
        ihk=ihk,
        partition=partition,
        host_tuning=host_tuning,
        picodriver=picodriver,
    )
