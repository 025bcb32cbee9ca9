"""Machine configurations: Oakforest-PACS, Fugaku, and the in-house
16-node A64FX testbed (Table 1 plus §6.3).

A :class:`Machine` bundles a node design with a system-level description
(node count, interconnect).  Nothing here is behavioural — behaviour
lives in the kernel/noise/net layers — so these objects are cheap and
safely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ConfigurationError
from ..units import gib
from .cache import A64FX_L2, KNL_L2, CacheSpec
from .numa import MemoryKind, NumaDomain, NumaLayout, NumaRole
from .tlb import A64FX_TLB, KNL_TLB, TlbSpec
from .topology import CpuTopology


@dataclass(frozen=True)
class NodeSpec:
    """Everything that describes one compute node's hardware."""

    name: str
    arch: str  # "x86_64" or "aarch64"
    topology: CpuTopology
    numa: NumaLayout
    tlb: TlbSpec
    l2: CacheSpec
    #: Base (smallest) page size the OS uses on this node, bytes.
    base_page_size: int
    #: Peak per-core compute throughput used to express the paper's
    #: workloads in seconds (double-precision flop/s per core).
    flops_per_core: float

    def __post_init__(self) -> None:
        if self.base_page_size <= 0:
            raise ConfigurationError("base_page_size must be positive")
        if self.flops_per_core <= 0:
            raise ConfigurationError("flops_per_core must be positive")


@dataclass(frozen=True)
class Machine:
    """A full system: node design replicated ``n_nodes`` times."""

    name: str
    node: NodeSpec
    n_nodes: int
    interconnect: str
    peak_pflops: float

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigurationError("n_nodes must be positive")

    @property
    def total_app_hw_threads(self) -> int:
        """HW threads available to applications across the machine."""
        return self.n_nodes * len(self.node.topology.application_cpu_ids())

    def scaled(self, n_nodes: int) -> "Machine":
        """Same machine at a different node count (sub-partition runs)."""
        if not 1 <= n_nodes <= self.n_nodes:
            raise ConfigurationError(
                f"cannot scale {self.name} to {n_nodes} nodes "
                f"(machine has {self.n_nodes})"
            )
        return replace(self, n_nodes=n_nodes)


def _knl_node() -> NodeSpec:
    """Xeon Phi 7250 node as deployed in OFP (Quadrant flat mode)."""
    topo = CpuTopology(physical_cores=68, smt=4, cores_per_group=17,
                       assistant_cores=0)
    numa = NumaLayout(
        [
            NumaDomain(node_id=0, kind=MemoryKind.DDR4, size_bytes=gib(96),
                       role=NumaRole.GENERAL, group_id=-1,
                       bandwidth=90e9, latency=130e-9),
            NumaDomain(node_id=1, kind=MemoryKind.MCDRAM, size_bytes=gib(16),
                       role=NumaRole.GENERAL, group_id=-1,
                       bandwidth=450e9, latency=150e-9),
        ]
    )
    return NodeSpec(
        name="Intel Xeon Phi 7250 (KNL)",
        arch="x86_64",
        topology=topo,
        numa=numa,
        tlb=KNL_TLB,
        l2=KNL_L2,
        base_page_size=4 * 1024,
        # 3.05 TF/node over 68 cores.
        flops_per_core=3.05e12 / 68,
    )


def _a64fx_node(cores: int = 50) -> NodeSpec:
    """A64FX node; ``cores`` is 50 or 52 (2 or 4 assistant cores)."""
    if cores not in (50, 52):
        raise ConfigurationError("A64FX nodes have 50 or 52 cores")
    topo = CpuTopology(physical_cores=cores, smt=1, cores_per_group=12,
                       assistant_cores=cores - 48)
    # Four HBM2 stacks of 8 GiB, one local to each CMG.
    numa = NumaLayout(
        [
            NumaDomain(node_id=g, kind=MemoryKind.HBM2, size_bytes=gib(8),
                       role=NumaRole.GENERAL, group_id=g,
                       bandwidth=256e9, latency=120e-9)
            for g in range(4)
        ]
    )
    return NodeSpec(
        name=f"Fujitsu A64FX ({cores} cores)",
        arch="aarch64",
        topology=topo,
        numa=numa,
        tlb=A64FX_TLB,
        l2=A64FX_L2,
        base_page_size=64 * 1024,  # RHEL aarch64 uses 64 KiB base pages
        # 3.38 TF/node (dp, boost off) over 48 app cores.
        flops_per_core=3.38e12 / 48,
    )


def oakforest_pacs() -> Machine:
    """Oakforest-PACS: 8,192 KNL nodes on Intel Omni-Path (Table 1)."""
    return Machine(
        name="Oakforest-PACS",
        node=_knl_node(),
        n_nodes=8192,
        interconnect="Intel OmniPath",
        peak_pflops=25.0,
    )


def fugaku(cores: int = 50) -> Machine:
    """Fugaku: 158,976 A64FX nodes on Fujitsu TofuD (Table 1)."""
    return Machine(
        name="Fugaku",
        node=_a64fx_node(cores),
        n_nodes=158976,
        interconnect="Fujitsu TofuD",
        peak_pflops=488.0,
    )


def a64fx_testbed() -> Machine:
    """The in-house 16-node A64FX system used for Table 2 / Figure 3
    (identical HW/SW environment to Fugaku, §6.3)."""
    return Machine(
        name="A64FX-testbed",
        node=_a64fx_node(50),
        n_nodes=16,
        interconnect="Fujitsu TofuD",
        peak_pflops=488.0 * 16 / 158976,
    )


#: Nodes per Fugaku rack (158,976 nodes / 432 racks = 384 — used for the
#: paper's "24 racks" = 9,216-node partitions).
NODES_PER_RACK = 384


def fugaku_racks(racks: int) -> Machine:
    """A ``racks``-rack Fugaku partition (24 racks in the paper)."""
    if racks <= 0:
        raise ConfigurationError("racks must be positive")
    return fugaku().scaled(racks * NODES_PER_RACK)
