"""Linux kernel model: memory management, cgroups, scheduling, tasks."""

from .base import OsInstance
from .buddy import BlockRange, BuddyAllocator
from .cgroup import Cgroup, make_fugaku_hierarchy
from .costmodel import CostModel, LINUX_COSTS, MCKERNEL_COSTS
from .ftrace import ActorSummary, Ftrace, TraceEvent
from .hugetlb import HugeTlbPool, HugeTlbStats
from .irq import IrqDescriptor, IrqRouter, default_irq_table
from .linux import LinuxKernel, SYSTEM_NUMA_FRACTION
from .pagetable import (
    AARCH64_64K,
    X86_4K,
    AddressSpace,
    FaultStats,
    PageGeometry,
    PageKind,
    SharedFrame,
    Vma,
    VmaKind,
)
from .scheduler import CfsScheduler, CooperativeScheduler, SchedTask
from .tasks import (
    BindingRule,
    SystemTask,
    standard_task_population,
    task_by_name,
    timer_tick_task,
)
from .tuning import (
    Countermeasure,
    LargePagePolicy,
    LinuxTuning,
    fugaku_production,
    ofp_default,
    untuned,
)

__all__ = [
    "OsInstance",
    "BlockRange",
    "BuddyAllocator",
    "Cgroup",
    "make_fugaku_hierarchy",
    "CostModel",
    "LINUX_COSTS",
    "MCKERNEL_COSTS",
    "ActorSummary",
    "Ftrace",
    "TraceEvent",
    "HugeTlbPool",
    "HugeTlbStats",
    "IrqDescriptor",
    "IrqRouter",
    "default_irq_table",
    "LinuxKernel",
    "SYSTEM_NUMA_FRACTION",
    "AARCH64_64K",
    "X86_4K",
    "AddressSpace",
    "FaultStats",
    "PageGeometry",
    "PageKind",
    "SharedFrame",
    "Vma",
    "VmaKind",
    "CfsScheduler",
    "CooperativeScheduler",
    "SchedTask",
    "BindingRule",
    "SystemTask",
    "standard_task_population",
    "task_by_name",
    "timer_tick_task",
    "Countermeasure",
    "LargePagePolicy",
    "LinuxTuning",
    "fugaku_production",
    "ofp_default",
    "untuned",
]
