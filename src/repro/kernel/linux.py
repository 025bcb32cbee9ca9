"""The Linux kernel personality: composition of all §4 machinery.

A :class:`LinuxKernel` boots a tuning configuration onto a node design:
it partitions the CPUs, sizes the buddy allocators, routes IRQs, places
the system task population, and exposes the :class:`OsInstance`
interface the runtime layer consumes.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..hardware.cache import SectorCache
from ..hardware.machines import NodeSpec
from ..hardware.tlb import TlbModel
from .base import OsInstance
from .buddy import BuddyAllocator
from .costmodel import CostModel, LINUX_COSTS
from .irq import IrqRouter, default_irq_table
from .pagetable import (
    AARCH64_64K,
    AddressSpace,
    PageGeometry,
    PageKind,
    X86_4K,
)
from .tasks import (
    BindingRule,
    SystemTask,
    ofp_task_population,
    standard_task_population,
)
from .tuning import LargePagePolicy, LinuxTuning


class LinuxKernel(OsInstance):
    """Linux booted on one node with a given tuning configuration."""

    kind = "linux"

    def __init__(
        self,
        node: NodeSpec,
        tuning: LinuxTuning,
        costs: CostModel = LINUX_COSTS,
        interconnect: str = "Fujitsu TofuD",
        tasks: Optional[list[SystemTask]] = None,
    ) -> None:
        self.node = node
        self.tuning = tuning
        self.costs = costs
        #: The machine interconnect the IRQ table was built for (kept so
        #: platform-level tests can assert uniform OS construction).
        self.interconnect = interconnect
        if tasks is not None:
            self.tasks = list(tasks)
        elif node.arch == "x86_64":
            # Production OFP-style population (diluted daemons); the
            # A64FX population models the Fugaku/testbed environment.
            self.tasks = ofp_task_population()
        else:
            self.tasks = standard_task_population()

        topo = node.topology
        # On platforms without assistant cores (KNL) the "system CPUs"
        # under cgroup isolation would be a reserved slice; without
        # isolation everything is shared.
        if topo.assistant_cores > 0:
            self._assistant_cpus = topo.assistant_cpu_ids()
            self._app_cpus = topo.application_cpu_ids()
        else:
            all_cpus = [c.cpu_id for c in topo]
            if tuning.cgroup_cpu_isolation:
                # Reserve the first physical core's threads for the system.
                reserved = set(topo.siblings(0))
                self._assistant_cpus = sorted(reserved)
                self._app_cpus = [c for c in all_cpus if c not in reserved]
            else:
                self._assistant_cpus = []
                self._app_cpus = all_cpus

        # -- IRQs -----------------------------------------------------------
        self.irq = default_irq_table([c.cpu_id for c in topo], interconnect)
        if tuning.irq_to_assistant and self._assistant_cpus:
            self.irq.route_all_to(self._assistant_cpus)

        # -- sector cache ------------------------------------------------------
        self.sector_cache = SectorCache(
            node.l2, system_ways=2 if tuning.sector_cache else 0
        )

        # -- TLB ---------------------------------------------------------------
        self.tlb = TlbModel(node.tlb, tuning.tlb_flush_mode)

        # -- lazily-built memory pools (per memory_scale) ----------------------
        self._buddies: dict[float, BuddyAllocator] = {}

    # -- OsInstance: CPU layout --------------------------------------------

    def app_cpu_ids(self) -> list[int]:
        return list(self._app_cpus)

    def system_cpu_ids(self) -> list[int]:
        return list(self._assistant_cpus)

    # -- OsInstance: memory ----------------------------------------------------

    def app_page_geometry(self) -> PageGeometry:
        return AARCH64_64K if self.node.arch == "aarch64" else X86_4K

    def app_page_kind(self) -> PageKind:
        policy = self.tuning.large_pages
        if policy is LargePagePolicy.NONE:
            return PageKind.BASE
        if policy is LargePagePolicy.THP:
            # THP on x86 gives 2 MiB huge pages; on aarch64/64K RHEL the THP
            # unit is the 512 MiB huge page (no contiguous-bit THP — the
            # very limitation that drove Fugaku to hugeTLBfs, §4.1.3).
            return PageKind.HUGE
        # hugeTLBfs with the contiguous bit (2 MiB on aarch64-64K); on
        # x86 hugeTLBfs serves regular 2 MiB pages.
        geo = self.app_page_geometry()
        return PageKind.CONTIG if geo.contig_factor else PageKind.HUGE

    def app_buddy(self, memory_scale: float = 1.0) -> BuddyAllocator:
        """The buddy allocator over application memory (memoised per
        scale so pools persist across address spaces, as in a running
        kernel)."""
        if not 0 < memory_scale <= 1.0:
            raise ConfigurationError("memory_scale must be in (0, 1]")
        buddy = self._buddies.get(memory_scale)
        if buddy is None:
            geo = self.app_page_geometry()
            app_bytes = self.node.numa.application_bytes()
            n_pages = max(64, int(app_bytes * memory_scale) // geo.base)
            buddy = BuddyAllocator(n_pages)
            self._buddies[memory_scale] = buddy
        return buddy

    def make_address_space(self, memory_scale: float = 1.0) -> AddressSpace:
        return AddressSpace(self.app_page_geometry(), self.app_buddy(memory_scale))

    # -- OsInstance: syscalls -----------------------------------------------------

    def syscall_delegated(self, name: str) -> bool:
        """Linux serves everything locally."""
        return False

    # -- OsInstance: noise -----------------------------------------------------------

    def noise_tasks_on_app_cores(self) -> list[SystemTask]:
        """Apply the placement rules of §4.2 to decide which system tasks
        still reach application cores."""
        t = self.tuning
        visible: list[SystemTask] = []
        has_system_partition = bool(self._assistant_cpus)
        for task in self.tasks:
            if task.binding is BindingRule.CGROUP:
                confined = t.cgroup_cpu_isolation and has_system_partition
                if task.name == "tlbi-broadcast":
                    # The TLBI storm is not confined by placement at all;
                    # it disappears only via the RHEL flush patch (for
                    # single-core processes, i.e. the system daemons —
                    # TCS binds all system components to one core, §4.2.2).
                    # x86 CPUs have no broadcast TLBI in the first place.
                    from ..hardware.tlb import TlbFlushMode

                    confined = (
                        t.tlb_flush_mode is not TlbFlushMode.BROADCAST
                        or self.node.tlb.broadcast_victim_cost == 0.0
                    )
                if not confined:
                    visible.append(task)
            elif task.binding is BindingRule.KWORKER_MASK:
                if not (t.bind_kworkers and has_system_partition):
                    visible.append(task)
            elif task.binding is BindingRule.BLK_MQ_MASK:
                if not (t.bind_blkmq and has_system_partition):
                    visible.append(task)
            elif task.binding is BindingRule.PER_JOB_STOP:
                if not t.stop_pmu_reads:
                    visible.append(task)
            elif task.binding is BindingRule.UNSTOPPABLE:
                if t.sar_enabled:
                    visible.append(task)
        return visible

    def tick_rate_on_app_cores(self) -> float:
        """nohz_full suppresses the tick for single-runnable-task cores,
        the steady state of a pinned HPC rank."""
        return 0.0 if self.tuning.nohz_full else self.tuning.tick_hz

    def irq_load_on_app_cores(self) -> float:
        """Mean IRQ handler seconds/second on one application core."""
        if not self._app_cpus:
            return 0.0
        cpu = self._app_cpus[len(self._app_cpus) // 2]
        return self.irq.load_on_cpu(cpu)

    def irq_rate_on_app_cores(self) -> float:
        """Mean IRQs/second landing on one application core."""
        if not self._app_cpus:
            return 0.0
        cpu = self._app_cpus[len(self._app_cpus) // 2]
        return self.irq.rate_on_cpu(cpu)

    # -- OsInstance: caches -------------------------------------------------------------

    def cache_pollution_factor(self) -> float:
        # Without a system partition, OS traffic shares the app's cache;
        # its share of fills is small but non-zero.
        system_share = 0.0 if self._assistant_cpus else 0.03
        return self.sector_cache.pollution_factor(system_share)
