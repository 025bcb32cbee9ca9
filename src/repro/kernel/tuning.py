"""Linux tuning configurations — every §4 countermeasure as a switch.

Three presets correspond to the paper's environments:

* :func:`fugaku_production` — the "highly tuned" RHEL stack: CPU
  partitioning (cgroup cpusets + sector cache), all §4.2 noise
  countermeasures, hugeTLBfs, RHEL 8.2 TLB patch, IRQs to assistant
  cores.
* :func:`ofp_default` — the "moderately tuned" CentOS stack: nohz_full
  on app cores and THP, but no CPU isolation, IRQs balanced over the
  whole chip (Table 1).
* :func:`untuned` — stock distro defaults, the worst case used by the
  ablation benchmarks.

Table 2 / Figure 3 are produced by calling :meth:`LinuxTuning.disable`
on one countermeasure at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..errors import ConfigurationError
from ..hardware.tlb import TlbFlushMode


class LargePagePolicy(enum.Enum):
    """How large pages are provided (Table 1 "Large page support")."""

    NONE = "none"
    THP = "thp"               # transparent huge pages (OFP)
    HUGETLBFS = "hugetlbfs"   # contiguous-bit hugeTLBfs (Fugaku)


class Countermeasure(enum.Enum):
    """The individually-evaluable noise countermeasures of Table 2."""

    DAEMON_BINDING = "daemon_binding"
    KWORKER_BINDING = "kworker_binding"
    BLKMQ_BINDING = "blkmq_binding"
    PMU_STOP = "pmu_stop"
    TLB_LOCAL_PATCH = "tlb_local_patch"


@dataclass(frozen=True)
class LinuxTuning:
    """Complete tuning state of one Linux deployment."""

    name: str
    # -- CPU partitioning -------------------------------------------------
    nohz_full: bool = False
    cgroup_cpu_isolation: bool = False   # daemons confined to system cores
    irq_to_assistant: bool = False
    bind_kworkers: bool = False
    bind_blkmq: bool = False
    stop_pmu_reads: bool = False
    # -- memory -----------------------------------------------------------
    large_pages: LargePagePolicy = LargePagePolicy.NONE
    # -- TLB --------------------------------------------------------------
    tlb_flush_mode: TlbFlushMode = TlbFlushMode.BROADCAST
    # -- caches -----------------------------------------------------------
    sector_cache: bool = False
    # -- always-on operational monitoring ---------------------------------
    sar_enabled: bool = True
    # -- scheduler tick ------------------------------------------------------
    tick_hz: float = 100.0

    def __post_init__(self) -> None:
        if self.tick_hz <= 0:
            raise ConfigurationError("tick_hz must be positive")

    # -- Table 2 manipulation ------------------------------------------------

    def disable(self, cm: Countermeasure) -> "LinuxTuning":
        """Return a copy with one countermeasure switched off — the
        per-row configuration of Table 2."""
        field_map = {
            Countermeasure.DAEMON_BINDING: {"cgroup_cpu_isolation": False},
            Countermeasure.KWORKER_BINDING: {"bind_kworkers": False},
            Countermeasure.BLKMQ_BINDING: {"bind_blkmq": False},
            Countermeasure.PMU_STOP: {"stop_pmu_reads": False},
            Countermeasure.TLB_LOCAL_PATCH: {
                "tlb_flush_mode": TlbFlushMode.BROADCAST
            },
        }
        changes = dict(field_map[cm])
        changes["name"] = f"{self.name}-minus-{cm.value}"
        return replace(self, **changes)

    def countermeasure_enabled(self, cm: Countermeasure) -> bool:
        return {
            Countermeasure.DAEMON_BINDING: self.cgroup_cpu_isolation,
            Countermeasure.KWORKER_BINDING: self.bind_kworkers,
            Countermeasure.BLKMQ_BINDING: self.bind_blkmq,
            Countermeasure.PMU_STOP: self.stop_pmu_reads,
            Countermeasure.TLB_LOCAL_PATCH: (
                self.tlb_flush_mode is TlbFlushMode.LOCAL_ONLY
            ),
        }[cm]


def fugaku_production() -> LinuxTuning:
    """Fugaku's production Linux configuration (§4, Table 1)."""
    return LinuxTuning(
        name="fugaku-linux",
        nohz_full=True,
        cgroup_cpu_isolation=True,
        irq_to_assistant=True,
        bind_kworkers=True,
        bind_blkmq=True,
        stop_pmu_reads=True,
        large_pages=LargePagePolicy.HUGETLBFS,
        tlb_flush_mode=TlbFlushMode.LOCAL_ONLY,
        sector_cache=True,
        sar_enabled=True,
    )


def ofp_default() -> LinuxTuning:
    """OFP's moderately tuned CentOS 7.3 (Table 1): nohz_full and THP,
    but no CPU isolation and IRQs balanced across the chip."""
    return LinuxTuning(
        name="ofp-linux",
        nohz_full=True,
        cgroup_cpu_isolation=False,
        irq_to_assistant=False,
        bind_kworkers=False,
        bind_blkmq=False,
        stop_pmu_reads=True,   # OFP has no TCS; there is nothing to stop
        large_pages=LargePagePolicy.THP,
        tlb_flush_mode=TlbFlushMode.IPI,  # x86 has no broadcast TLBI
        sector_cache=False,
        sar_enabled=True,
    )


def untuned() -> LinuxTuning:
    """Stock distribution defaults (ablation baseline)."""
    return LinuxTuning(name="untuned-linux")
