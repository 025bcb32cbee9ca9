"""Hardware models: CPU topology, NUMA, TLB, caches, barriers, machines."""

from .cache import A64FX_L2, KNL_L2, CacheSpec, SectorCache
from .hwbarrier import (
    A64FX_BARRIER,
    KNL_BARRIER,
    BarrierSpec,
    HardwareBarrierAllocator,
)
from .machines import (
    Machine,
    NodeSpec,
    NODES_PER_RACK,
    a64fx_testbed,
    fugaku,
    fugaku_racks,
    oakforest_pacs,
)
from .numa import (
    MemoryKind,
    NumaDomain,
    NumaLayout,
    NumaRole,
    split_virtual_numa,
)
from .tlb import A64FX_TLB, KNL_TLB, TlbFlushMode, TlbModel, TlbSpec
from .topology import CpuTopology, LogicalCpu

__all__ = [
    "CacheSpec",
    "SectorCache",
    "A64FX_L2",
    "KNL_L2",
    "BarrierSpec",
    "HardwareBarrierAllocator",
    "A64FX_BARRIER",
    "KNL_BARRIER",
    "Machine",
    "NodeSpec",
    "NODES_PER_RACK",
    "a64fx_testbed",
    "fugaku",
    "fugaku_racks",
    "oakforest_pacs",
    "MemoryKind",
    "NumaDomain",
    "NumaLayout",
    "NumaRole",
    "split_virtual_numa",
    "TlbSpec",
    "TlbModel",
    "TlbFlushMode",
    "A64FX_TLB",
    "KNL_TLB",
    "CpuTopology",
    "LogicalCpu",
]
