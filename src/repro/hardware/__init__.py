"""Hardware models: CPU topology, NUMA, TLB, caches, machines."""

from .cache import A64FX_L2, KNL_L2, CacheSpec, SectorCache
from .machines import (
    Machine,
    NodeSpec,
    NODES_PER_RACK,
    a64fx_testbed,
    fugaku,
    fugaku_racks,
    oakforest_pacs,
)
from .numa import MemoryKind, NumaDomain, NumaLayout, NumaRole
from .tlb import A64FX_TLB, KNL_TLB, TlbFlushMode, TlbModel, TlbSpec
from .topology import CpuTopology, LogicalCpu

__all__ = [
    "CacheSpec",
    "SectorCache",
    "A64FX_L2",
    "KNL_L2",
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
    "TlbSpec",
    "TlbModel",
    "TlbFlushMode",
    "A64FX_TLB",
    "KNL_TLB",
    "CpuTopology",
    "LogicalCpu",
]
