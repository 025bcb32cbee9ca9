"""Linux kernel model: memory management, scheduling, tasks."""

from .base import OsInstance
from .buddy import BlockRange, BuddyAllocator
from .costmodel import CostModel, LINUX_COSTS, MCKERNEL_COSTS
from .ftrace import ActorSummary, Ftrace, TraceEvent
from .irq import IrqDescriptor, IrqRouter, default_irq_table
from .linux import LinuxKernel
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
    "CostModel",
    "LINUX_COSTS",
    "MCKERNEL_COSTS",
    "ActorSummary",
    "Ftrace",
    "TraceEvent",
    "IrqDescriptor",
    "IrqRouter",
    "default_irq_table",
    "LinuxKernel",
    "AARCH64_64K",
    "X86_4K",
    "AddressSpace",
    "FaultStats",
    "PageGeometry",
    "PageKind",
    "SharedFrame",
    "Vma",
    "VmaKind",
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
