"""Linux control groups: cpuset and memory controllers.

Fugaku (§4.1.1, §4.2) relies on cgroups for all of its partitioning:
Docker creates an application cgroup that pins user processes to
application cores and application NUMA domains, and a dedicated system
cgroup isolates system CPUs/memory.

The memory controller here also implements the §4.1.3 extension: stock
RHEL's memcg "is not sufficiently integrated with hugeTLBfs and is
unable to limit the usage of surplus large pages allocated by
overcommit", so Fugaku hooks a kernel function via a module to charge
surplus hugeTLBfs pages to the memory cgroup.  The hook is modelled by
the ``charge_surplus_hugetlb`` flag — with it off, surplus huge pages
escape the limit exactly as on stock kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import CgroupLimitExceeded, ConfigurationError


@dataclass
class CpusetController:
    """cpuset: which CPUs and NUMA nodes members may use."""

    cpus: frozenset[int]
    mems: frozenset[int]

    def allows_cpu(self, cpu_id: int) -> bool:
        return cpu_id in self.cpus

    def allows_mem(self, numa_node: int) -> bool:
        return numa_node in self.mems


@dataclass
class MemoryController:
    """memcg: byte-accounted limit with optional hugetlb-surplus hook."""

    limit_bytes: Optional[int] = None  # None = unlimited
    charge_surplus_hugetlb: bool = False
    usage_bytes: int = 0
    #: Surplus hugeTLBfs bytes attributed to this group (charged against
    #: the limit only when the hook is enabled).
    surplus_hugetlb_bytes: int = 0
    failcnt: int = 0

    def _charged(self) -> int:
        charged = self.usage_bytes
        if self.charge_surplus_hugetlb:
            charged += self.surplus_hugetlb_bytes
        return charged

    def charge(self, nbytes: int, surplus_hugetlb: bool = False) -> None:
        """Account an allocation; raises :class:`CgroupLimitExceeded` if
        the (effective) charge would exceed the limit."""
        if nbytes < 0:
            raise ConfigurationError("charge must be non-negative")
        would_count = (not surplus_hugetlb) or self.charge_surplus_hugetlb
        if (
            self.limit_bytes is not None
            and would_count
            and self._charged() + nbytes > self.limit_bytes
        ):
            self.failcnt += 1
            raise CgroupLimitExceeded(
                f"charge of {nbytes} exceeds limit {self.limit_bytes} "
                f"(in use: {self._charged()})"
            )
        if surplus_hugetlb:
            self.surplus_hugetlb_bytes += nbytes
        else:
            self.usage_bytes += nbytes

    def uncharge(self, nbytes: int, surplus_hugetlb: bool = False) -> None:
        if nbytes < 0:
            raise ConfigurationError("uncharge must be non-negative")
        if surplus_hugetlb:
            if nbytes > self.surplus_hugetlb_bytes:
                raise ConfigurationError("uncharge exceeds surplus usage")
            self.surplus_hugetlb_bytes -= nbytes
        else:
            if nbytes > self.usage_bytes:
                raise ConfigurationError("uncharge exceeds usage")
            self.usage_bytes -= nbytes


class Cgroup:
    """A node in the cgroup hierarchy.

    Only the two controllers the paper uses are implemented.  Children
    inherit (a subset of) the parent's cpuset, enforced on creation as
    the kernel does.
    """

    def __init__(
        self,
        name: str,
        cpus: Iterable[int],
        mems: Iterable[int],
        parent: Optional["Cgroup"] = None,
        memory_limit: Optional[int] = None,
        charge_surplus_hugetlb: bool = False,
    ) -> None:
        cpu_set = frozenset(cpus)
        mem_set = frozenset(mems)
        if not cpu_set:
            raise ConfigurationError(f"cgroup {name!r} needs at least one CPU")
        if not mem_set:
            raise ConfigurationError(f"cgroup {name!r} needs at least one mem node")
        if parent is not None:
            if not cpu_set <= parent.cpuset.cpus:
                raise ConfigurationError(
                    f"cgroup {name!r} cpus {sorted(cpu_set)} not a subset of "
                    f"parent's {sorted(parent.cpuset.cpus)}"
                )
            if not mem_set <= parent.cpuset.mems:
                raise ConfigurationError(
                    f"cgroup {name!r} mems not a subset of parent's"
                )
        self.name = name
        self.parent = parent
        self.cpuset = CpusetController(cpus=cpu_set, mems=mem_set)
        self.memory = MemoryController(
            limit_bytes=memory_limit,
            charge_surplus_hugetlb=charge_surplus_hugetlb,
        )
        self.children: dict[str, Cgroup] = {}
        self.tasks: set[int] = set()  # attached task ids
        if parent is not None:
            if name in parent.children:
                raise ConfigurationError(f"duplicate child cgroup {name!r}")
            parent.children[name] = self

    # -- membership -------------------------------------------------------

    def attach(self, task_id: int) -> None:
        """Move a task into this cgroup (removing it from a sibling if a
        common ancestor tracks it — we keep it simple: task ids are only
        tracked at the group they're attached to)."""
        self.tasks.add(task_id)

    def detach(self, task_id: int) -> None:
        self.tasks.discard(task_id)

    # -- allowed resources ---------------------------------------------------

    def effective_cpus(self) -> frozenset[int]:
        return self.cpuset.cpus

    def effective_mems(self) -> frozenset[int]:
        return self.cpuset.mems

    def path(self) -> str:
        parts = []
        node: Optional[Cgroup] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))

    def __repr__(self) -> str:
        return (
            f"Cgroup({self.path()!r}, cpus={sorted(self.cpuset.cpus)[:4]}..., "
            f"tasks={len(self.tasks)})"
        )


def make_fugaku_hierarchy(
    all_cpus: Iterable[int],
    assistant_cpus: Iterable[int],
    app_cpus: Iterable[int],
    system_mems: Iterable[int],
    app_mems: Iterable[int],
    app_memory_limit: Optional[int] = None,
) -> tuple[Cgroup, Cgroup, Cgroup]:
    """Build the root/system/application cgroup triple Fugaku's Docker
    integration creates (§4.1.1).  Returns (root, system, app)."""
    all_mems = frozenset(system_mems) | frozenset(app_mems)
    root = Cgroup("", cpus=all_cpus, mems=all_mems)
    system = Cgroup("system", cpus=assistant_cpus, mems=system_mems, parent=root)
    app = Cgroup(
        "app",
        cpus=app_cpus,
        mems=app_mems,
        parent=root,
        memory_limit=app_memory_limit,
        charge_surplus_hugetlb=True,  # the Fugaku kernel-module hook
    )
    return root, system, app
