"""NUMA domains of one node.

Memory controllers have distinct kinds and sizes (MCDRAM vs DDR4 on KNL
in flat mode; four HBM2 stacks, one per CMG, on A64FX).  Each domain
carries a :class:`NumaRole` saying who may allocate from it; the
application-visible capacity sizes the kernels' buddy allocators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError


class MemoryKind(enum.Enum):
    """Technology of a memory domain (affects bandwidth/latency model)."""

    DDR4 = "ddr4"
    MCDRAM = "mcdram"
    HBM2 = "hbm2"


class NumaRole(enum.Enum):
    """Who may allocate from a domain."""

    GENERAL = "general"        # anyone (no virtual-NUMA split)
    SYSTEM = "system"          # OS daemons, kernel allocations
    APPLICATION = "application"  # user jobs only


@dataclass(frozen=True)
class NumaDomain:
    """One NUMA memory domain visible to the kernel."""

    node_id: int
    kind: MemoryKind
    size_bytes: int
    role: NumaRole = NumaRole.GENERAL
    #: Core group (CMG) this domain is local to; -1 = interleaved/far.
    group_id: int = -1
    #: Stream bandwidth in bytes/s (used by the memory cost model).
    bandwidth: float = 100e9
    #: Idle load-to-use latency in seconds.
    latency: float = 90e-9

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError("NUMA domain size must be positive")
        if self.bandwidth <= 0 or self.latency <= 0:
            raise ConfigurationError("bandwidth and latency must be positive")


class NumaLayout:
    """The set of NUMA domains of one node plus lookup helpers."""

    def __init__(self, domains: Sequence[NumaDomain]) -> None:
        if not domains:
            raise ConfigurationError("a node needs at least one NUMA domain")
        ids = [d.node_id for d in domains]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate NUMA node ids: {ids}")
        self.domains: tuple[NumaDomain, ...] = tuple(
            sorted(domains, key=lambda d: d.node_id)
        )

    def __iter__(self):
        return iter(self.domains)

    def __len__(self) -> int:
        return len(self.domains)

    def domain(self, node_id: int) -> NumaDomain:
        for d in self.domains:
            if d.node_id == node_id:
                return d
        raise ConfigurationError(f"no NUMA node {node_id}")

    def total_bytes(self) -> int:
        return sum(d.size_bytes for d in self.domains)

    def application_bytes(self) -> int:
        """Memory usable by applications (APPLICATION + GENERAL roles)."""
        return sum(
            d.size_bytes
            for d in self.domains
            if d.role in (NumaRole.APPLICATION, NumaRole.GENERAL)
        )

    def local_domain(self, group_id: int, role: NumaRole) -> NumaDomain:
        """The domain local to core group ``group_id`` with role ``role``
        (falling back to GENERAL if no split is configured)."""
        for d in self.domains:
            if d.group_id == group_id and d.role == role:
                return d
        for d in self.domains:
            if d.group_id == group_id and d.role == NumaRole.GENERAL:
                return d
        raise ConfigurationError(
            f"no NUMA domain local to group {group_id} with role {role}"
        )
