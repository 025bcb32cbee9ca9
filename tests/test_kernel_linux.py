"""The composed Linux kernel personality on both platforms."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel.linux import LinuxKernel
from repro.kernel.pagetable import PageKind
from repro.kernel.tuning import (
    Countermeasure,
    LargePagePolicy,
    fugaku_production,
    ofp_default,
    untuned,
)


def test_fugaku_partitions_cpus(fugaku_linux):
    assert len(fugaku_linux.app_cpu_ids()) == 48
    assert len(fugaku_linux.system_cpu_ids()) == 2
    assert not (set(fugaku_linux.app_cpu_ids())
                & set(fugaku_linux.system_cpu_ids()))


def test_ofp_has_no_partition(ofp_linux):
    assert len(ofp_linux.app_cpu_ids()) == 272
    assert ofp_linux.system_cpu_ids() == []


def test_irqs_routed_to_assistants_on_fugaku(fugaku_linux):
    assert fugaku_linux.irq_rate_on_app_cores() == 0.0
    assert fugaku_linux.irq_load_on_app_cores() == 0.0


def test_irqs_balanced_on_ofp(ofp_linux):
    assert ofp_linux.irq_rate_on_app_cores() > 0.0


def test_page_kind_per_policy(fugaku_machine, ofp_machine):
    fug = LinuxKernel(fugaku_machine.node, fugaku_production())
    assert fug.app_page_kind() is PageKind.CONTIG  # hugeTLBfs contig bit
    ofp = LinuxKernel(ofp_machine.node, ofp_default(),
                      interconnect=ofp_machine.interconnect)
    assert ofp.app_page_kind() is PageKind.HUGE  # THP 2 MiB
    bare = LinuxKernel(fugaku_machine.node, untuned())
    assert bare.app_page_kind() is PageKind.BASE


def test_noise_tasks_fully_tuned_leaves_only_sar(fugaku_linux):
    assert [t.name for t in fugaku_linux.noise_tasks_on_app_cores()] == ["sar"]


def test_noise_tasks_untuned_has_everything(untuned_linux):
    names = {t.name for t in untuned_linux.noise_tasks_on_app_cores()}
    assert names == {"daemons", "kworker", "blk-mq", "pmu-read",
                     "tlbi-broadcast", "sar"}


def test_disabling_one_countermeasure_reintroduces_one_task(fugaku_machine):
    mapping = {
        Countermeasure.DAEMON_BINDING: "daemons",
        Countermeasure.KWORKER_BINDING: "kworker",
        Countermeasure.BLKMQ_BINDING: "blk-mq",
        Countermeasure.PMU_STOP: "pmu-read",
        Countermeasure.TLB_LOCAL_PATCH: "tlbi-broadcast",
    }
    for cm, task_name in mapping.items():
        kernel = LinuxKernel(fugaku_machine.node,
                             fugaku_production().disable(cm))
        names = {t.name for t in kernel.noise_tasks_on_app_cores()}
        assert names == {"sar", task_name}, cm


def test_x86_never_has_tlbi_broadcast_noise(ofp_machine):
    kernel = LinuxKernel(ofp_machine.node, untuned(),
                         interconnect=ofp_machine.interconnect)
    names = {t.name for t in kernel.noise_tasks_on_app_cores()}
    assert "tlbi-broadcast" not in names


def test_nohz_full_controls_tick(fugaku_machine):
    tuned = LinuxKernel(fugaku_machine.node, fugaku_production())
    assert tuned.tick_rate_on_app_cores() == 0.0
    bare = LinuxKernel(fugaku_machine.node, untuned())
    assert bare.tick_rate_on_app_cores() == 100.0


def test_cache_pollution_only_without_partition(fugaku_linux, ofp_linux):
    assert fugaku_linux.cache_pollution_factor() == 1.0
    assert ofp_linux.cache_pollution_factor() > 1.0


def test_app_buddy_memoised_per_scale(fugaku_linux):
    a = fugaku_linux.app_buddy(memory_scale=0.001)
    b = fugaku_linux.app_buddy(memory_scale=0.001)
    assert a is b
    c = fugaku_linux.app_buddy(memory_scale=0.002)
    assert c is not a
    with pytest.raises(ConfigurationError):
        fugaku_linux.app_buddy(memory_scale=0.0)


def test_address_space_uses_app_memory(fugaku_linux):
    aspace = fugaku_linux.make_address_space(memory_scale=0.001)
    vma = aspace.mmap(2 * 1024 * 1024, page_kind=PageKind.CONTIG,
                      prefault=True)
    assert vma.populated_bytes == 2 * 1024 * 1024


def test_linux_serves_all_syscalls_locally(fugaku_linux):
    assert not fugaku_linux.syscall_delegated("open")
    assert not fugaku_linux.syscall_delegated("mmap")


def test_knl_isolation_reserves_core0(ofp_machine):
    from dataclasses import replace

    tuning = replace(ofp_default(), cgroup_cpu_isolation=True)
    kernel = LinuxKernel(ofp_machine.node, tuning,
                         interconnect=ofp_machine.interconnect)
    # 4 SMT threads of physical core 0 go to the system.
    assert len(kernel.system_cpu_ids()) == 4
    assert len(kernel.app_cpu_ids()) == 268
