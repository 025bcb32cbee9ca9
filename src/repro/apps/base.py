"""Bulk-synchronous application model.

The paper's application results (Figs. 5-7) measure how each code's *OS
interaction profile* responds to the two kernels.  A
:class:`WorkloadProfile` captures that profile declaratively:

* **compute** — per-thread work per sync interval (``S`` in Eq. 1) and
  how it scales with node count (strong/weak);
* **communication** — the collective performed each iteration and its
  message size;
* **memory behaviour** — steady-state heap churn (alloc/free per
  iteration, the LULESH effect), working-set size (TLB pressure);
* **init phase** — compute, I/O syscalls and RDMA registrations (the
  GAMERA effect);
* **geometry** — ranks/threads per node on each platform (from the
  paper's artifact appendix);
* **variability** — run-to-run spread producing the paper's error bars
  (large for GeoFEM, §6.4).

The model that turns a profile into seconds lives in
:mod:`repro.runtime.runner`; profiles stay declarative so users can add
applications without touching the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError


@dataclass(frozen=True)
class RankGeometry:
    """MPI geometry on one platform (ranks x threads per node)."""

    ranks_per_node: int
    threads_per_rank: int

    def __post_init__(self) -> None:
        if self.ranks_per_node <= 0 or self.threads_per_rank <= 0:
            raise ConfigurationError("geometry must be positive")

    @property
    def threads_per_node(self) -> int:
        return self.ranks_per_node * self.threads_per_rank


@dataclass(frozen=True)
class InitPhase:
    """One-time startup work per rank."""

    #: Fixed compute/setup seconds per rank.
    compute: float = 0.0
    #: Delegatable I/O syscalls issued (config/mesh reading).
    io_syscalls: int = 0
    #: RDMA registrations: how many regions, how large, and how many
    #: times the set is (re-)registered over the run (multigrid levels x
    #: time steps re-register their communication surfaces).
    reg_count: int = 0
    reg_bytes_each: int = 0
    reg_repeats: int = 1

    def __post_init__(self) -> None:
        if self.compute < 0 or self.io_syscalls < 0:
            raise ConfigurationError("init phase values must be non-negative")
        if self.reg_count < 0 or self.reg_bytes_each < 0 or self.reg_repeats < 1:
            raise ConfigurationError("invalid registration spec")


@dataclass(frozen=True)
class WorkloadProfile:
    """Declarative OS-interaction profile of one application."""

    name: str
    description: str
    #: "strong" (fixed global problem) or "weak" (fixed per-node work).
    scaling: str
    #: Node count the reference values below are quoted at.
    reference_nodes: int
    #: Per-thread compute seconds per sync interval at reference_nodes.
    sync_interval: float
    #: Sync intervals per application step.
    iterations: int
    #: Application steps (GAMERA runs 3; most codes 1 solve).
    steps: int = 1
    #: Collective per iteration: "barrier" | "allreduce" | "halo" |
    #: "halo+allreduce".
    collective: str = "allreduce"
    #: Message bytes per rank per iteration at reference_nodes.
    msg_bytes: int = 8 * 1024
    #: Heap bytes allocated AND freed per thread per iteration at
    #: reference_nodes (glibc returns them to the kernel on Linux;
    #: McKernel's LWK heap retains them — the LULESH mechanism).
    churn_bytes: int = 0
    #: Resident working set per thread at reference_nodes.
    working_set: int = 256 * 1024 * 1024
    #: Memory references per second of compute (TLB pressure).
    refs_per_second: float = 2.0e8
    #: Memory-access locality in [0, 1) for the TLB miss model.
    locality: float = 0.9
    init: InitPhase = field(default_factory=InitPhase)
    #: Platform geometries keyed by node architecture (``"x86_64"``
    #: for OFP's KNL, ``"aarch64"`` for the A64FX machines); see
    #: :func:`geometry_for`.
    geometry: dict = field(default_factory=dict)
    #: Per-architecture churn overrides (node arch -> bytes at
    #: reference_nodes).  The paper's codes have platform-specific
    #: versions with different allocation behaviour (§6.2): GeoFEM's
    #: OFP-optimised build reuses work arrays, while its Fugaku port
    #: reallocates per solver pass.
    churn_override: dict = field(default_factory=dict)
    #: Run-to-run relative standard deviation (error-bar width).
    variability: float = 0.01

    def __post_init__(self) -> None:
        if self.scaling not in ("strong", "weak"):
            raise ConfigurationError(f"unknown scaling {self.scaling!r}")
        if self.reference_nodes <= 0 or self.sync_interval <= 0:
            raise ConfigurationError("reference values must be positive")
        if self.iterations <= 0 or self.steps <= 0:
            raise ConfigurationError("iterations/steps must be positive")
        if self.churn_bytes < 0 or self.working_set <= 0:
            raise ConfigurationError("memory sizes invalid")
        if not 0.0 <= self.locality < 1.0:
            raise ConfigurationError("locality must be in [0, 1)")
        if self.variability < 0:
            raise ConfigurationError("variability must be non-negative")

    # -- scaling rules --------------------------------------------------

    def _shrink(self, n_nodes: int) -> float:
        """Per-thread work factor at ``n_nodes`` relative to reference."""
        if n_nodes <= 0:
            raise ConfigurationError("n_nodes must be positive")
        if self.scaling == "weak":
            return 1.0
        return self.reference_nodes / n_nodes

    def sync_interval_at(self, n_nodes: int) -> float:
        return self.sync_interval * self._shrink(n_nodes)

    def msg_bytes_at(self, n_nodes: int) -> int:
        """Strong scaling shrinks halo surfaces with the 2/3 power of
        the per-rank volume."""
        return max(64, int(self.msg_bytes * self._shrink(n_nodes) ** (2.0 / 3.0)))

    def churn_bytes_at(self, n_nodes: int, arch: str = "") -> int:
        base = self.churn_override.get(arch, self.churn_bytes)
        return int(base * self._shrink(n_nodes))

    def working_set_at(self, n_nodes: int) -> int:
        return max(4096, int(self.working_set * self._shrink(n_nodes)))

    def geometry_for(self, arch: str) -> RankGeometry:
        """Geometry on a node architecture (defaults to 4 ranks x 12
        threads, the Fugaku convention)."""
        return self.geometry.get(
            arch, RankGeometry(ranks_per_node=4, threads_per_rank=12))
