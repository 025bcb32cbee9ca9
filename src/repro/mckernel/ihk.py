"""IHK — Interface for Heterogeneous Kernels (§5).

IHK partitions a node's CPU cores and physical memory **dynamically, no
reboot required**, and manages lightweight kernel instances on the
reserved slice.  It is "a collection of Linux kernel modules without
any modifications to the Linux kernel itself".

The model keeps the real tool semantics (mirroring ``ihkconfig`` /
``ihkosctl``): reserve → create OS → assign resources → boot → destroy,
with validation at each step, so misuse raises the same class of errors
the utilities report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ConfigurationError, PartitionError, ResourceError
from ..hardware.machines import NodeSpec
from ..hardware.numa import NumaRole
from .ikc import IkcSpec


class OsState(enum.Enum):
    """Lifecycle of an LWK instance (ihkosctl's status values)."""

    EMPTY = "empty"
    CREATED = "created"
    BOOTED = "booted"
    SHUTDOWN = "shutdown"


@dataclass
class MemoryReservation:
    """Physical memory taken from Linux on one NUMA node."""

    numa_node: int
    size_bytes: int


@dataclass
class LwkPartition:
    """Resources assigned to one LWK instance."""

    os_index: int
    cpus: frozenset[int] = field(default_factory=frozenset)
    memory: list[MemoryReservation] = field(default_factory=list)
    state: OsState = OsState.CREATED
    ikc: IkcSpec = field(default_factory=IkcSpec)

    def total_memory(self) -> int:
        return sum(m.size_bytes for m in self.memory)


class Ihk:
    """IHK resource manager for one node."""

    def __init__(self, node: NodeSpec) -> None:
        self.node = node
        self._reserved_cpus: set[int] = set()
        self._reserved_mem: dict[int, int] = {}  # numa node -> bytes reserved
        self._partitions: dict[int, LwkPartition] = {}
        self._next_os = 0

    # -- reservation (ihkconfig reserve) ----------------------------------

    def reserve_cpus(self, cpu_ids: list[int]) -> None:
        """Offline CPUs from Linux and hand them to IHK."""
        requested = self.node.topology.validate_cpu_set(cpu_ids)
        overlap = requested & self._reserved_cpus
        if overlap:
            raise PartitionError(f"CPUs already reserved: {sorted(overlap)}")
        # Linux must keep at least one CPU (it hosts the proxy processes
        # and all delegated syscalls).
        all_cpus = {c.cpu_id for c in self.node.topology}
        if not (all_cpus - self._reserved_cpus - requested):
            raise PartitionError("cannot reserve every CPU: Linux needs one")
        self._reserved_cpus |= requested

    def reserve_memory(self, numa_node: int, size_bytes: int) -> None:
        """Offline a physical memory range on one NUMA node."""
        if size_bytes <= 0:
            raise ConfigurationError("size_bytes must be positive")
        domain = self.node.numa.domain(numa_node)  # validates the id
        already = self._reserved_mem.get(numa_node, 0)
        if already + size_bytes > domain.size_bytes:
            raise ResourceError(
                f"NUMA node {numa_node} has {domain.size_bytes - already} "
                f"bytes unreserved, requested {size_bytes}"
            )
        self._reserved_mem[numa_node] = already + size_bytes

    def release_cpus(self, cpu_ids: list[int]) -> None:
        """Return CPUs to Linux (they must not belong to a live LWK)."""
        requested = set(cpu_ids)
        if not requested <= self._reserved_cpus:
            raise PartitionError("releasing CPUs that are not reserved")
        for part in self._partitions.values():
            if part.state is OsState.BOOTED and (requested & part.cpus):
                raise PartitionError(
                    f"CPUs in use by booted OS {part.os_index}"
                )
        self._reserved_cpus -= requested

    # -- queries ---------------------------------------------------------

    @property
    def reserved_cpus(self) -> frozenset[int]:
        return frozenset(self._reserved_cpus)

    def linux_cpus(self) -> list[int]:
        """CPUs Linux still owns."""
        return [
            c.cpu_id
            for c in self.node.topology
            if c.cpu_id not in self._reserved_cpus
        ]

    def reserved_memory(self, numa_node: int) -> int:
        return self._reserved_mem.get(numa_node, 0)

    # -- OS lifecycle (ihkosctl) -------------------------------------------

    def create_os(self) -> LwkPartition:
        part = LwkPartition(os_index=self._next_os)
        self._partitions[self._next_os] = part
        self._next_os += 1
        return part

    def assign(self, part: LwkPartition, cpus: list[int],
               memory: list[MemoryReservation]) -> None:
        """Assign reserved resources to an OS instance."""
        if part.state is not OsState.CREATED:
            raise PartitionError(f"OS {part.os_index} is {part.state.value}")
        cpu_set = frozenset(cpus)
        if not cpu_set:
            raise PartitionError("an LWK needs at least one CPU")
        if not cpu_set <= self._reserved_cpus:
            raise PartitionError("assigning CPUs that are not reserved")
        for other in self._partitions.values():
            if other is not part and (cpu_set & other.cpus):
                raise PartitionError("CPUs already assigned to another OS")
        for res in memory:
            if res.size_bytes <= 0:
                raise ConfigurationError("reservation sizes must be positive")
            if res.size_bytes > self.reserved_memory(res.numa_node):
                raise PartitionError(
                    f"memory on NUMA {res.numa_node} not reserved"
                )
        part.cpus = cpu_set
        part.memory = list(memory)

    def boot(self, part: LwkPartition) -> None:
        if part.state is not OsState.CREATED:
            raise PartitionError(f"OS {part.os_index} is {part.state.value}")
        if not part.cpus or not part.memory:
            raise PartitionError("boot requires CPUs and memory assigned")
        part.state = OsState.BOOTED

    def shutdown(self, part: LwkPartition) -> None:
        if part.state is not OsState.BOOTED:
            raise PartitionError(f"OS {part.os_index} is not booted")
        part.state = OsState.SHUTDOWN

    def destroy(self, part: LwkPartition) -> None:
        """Destroy an instance, returning its resources to the reserved
        pool (they stay reserved until released to Linux)."""
        if part.state is OsState.BOOTED:
            raise PartitionError("shut the OS down before destroying it")
        self._partitions.pop(part.os_index, None)
        part.cpus = frozenset()
        part.memory = []
        part.state = OsState.EMPTY


def reserve_fugaku_style(ihk: Ihk, memory_fraction: float = 0.9) -> LwkPartition:
    """The deployment used in the paper's Fugaku runs: all application
    cores and most application memory go to McKernel; Linux keeps the
    assistant cores.  Returns the booted partition."""
    if not 0 < memory_fraction <= 1.0:
        raise ConfigurationError("memory_fraction must be in (0, 1]")
    topo = ihk.node.topology
    app_cpus = topo.application_cpu_ids()
    if topo.assistant_cores == 0:
        # KNL-style: leave the first physical core's threads to Linux.
        linux_side = set(topo.siblings(0))
        app_cpus = [c for c in app_cpus if c not in linux_side]
    ihk.reserve_cpus(app_cpus)
    reservations = []
    for domain in ihk.node.numa:
        if domain.role is NumaRole.SYSTEM:
            continue
        size = int(domain.size_bytes * memory_fraction)
        ihk.reserve_memory(domain.node_id, size)
        reservations.append(
            MemoryReservation(numa_node=domain.node_id, size_bytes=size)
        )
    part = ihk.create_os()
    ihk.assign(part, app_cpus, reservations)
    ihk.boot(part)
    return part
