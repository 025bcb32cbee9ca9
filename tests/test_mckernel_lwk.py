"""McKernel instance + process model: delegation, memory, noise-freedom."""

import pytest

from repro.errors import PartitionError, SyscallError
from repro.hardware.tlb import TlbFlushMode
from repro.kernel.pagetable import PageKind
from repro.kernel.tuning import fugaku_production
from repro.mckernel.ihk import Ihk, reserve_fugaku_style
from repro.mckernel.lwk import McKernelInstance, boot_mckernel
from repro.units import mib


def test_boot_convenience_matches_paper_deployment(fugaku_mckernel):
    assert fugaku_mckernel.kind == "mckernel"
    assert len(fugaku_mckernel.app_cpu_ids()) == 48
    assert len(fugaku_mckernel.system_cpu_ids()) == 2


def test_unbooted_partition_rejected(fugaku_machine):
    ihk = Ihk(fugaku_machine.node)
    part = ihk.create_os()  # never booted
    with pytest.raises(PartitionError):
        McKernelInstance(fugaku_machine.node, ihk, part)


def test_lwk_is_large_page_first(fugaku_mckernel, ofp_mckernel):
    assert fugaku_mckernel.app_page_kind() is PageKind.CONTIG
    assert ofp_mckernel.app_page_kind() is PageKind.HUGE


def test_no_noise_no_tick(fugaku_mckernel, ofp_mckernel):
    # §6.3: McKernel "performs absolutely no background activities".
    assert fugaku_mckernel.noise_tasks_on_app_cores() == []
    assert ofp_mckernel.noise_tasks_on_app_cores() == []
    assert fugaku_mckernel.tick_rate_on_app_cores() == 0.0


def test_unpatched_host_leaks_tlbi_broadcast(fugaku_machine):
    from dataclasses import replace

    unpatched = replace(fugaku_production(),
                        tlb_flush_mode=TlbFlushMode.BROADCAST,
                        name="fugaku-unpatched")
    mck = boot_mckernel(fugaku_machine.node, host_tuning=unpatched)
    names = [t.name for t in mck.noise_tasks_on_app_cores()]
    assert names == ["tlbi-broadcast"]


def test_delegation_classification(fugaku_mckernel):
    assert not fugaku_mckernel.syscall_delegated("mmap")
    assert fugaku_mckernel.syscall_delegated("open")


def test_picodriver_flag(fugaku_machine):
    with_pico = boot_mckernel(fugaku_machine.node, picodriver=True)
    without = boot_mckernel(fugaku_machine.node, picodriver=False)
    assert with_pico.rdma_fast_path
    assert not without.rdma_fast_path


def test_process_spawn_creates_proxy(fugaku_mckernel):
    p = fugaku_mckernel.spawn(memory_scale=0.001)
    assert p.proxy.lwk_pid == p.pid
    assert p.proxy.alive


def test_local_syscalls_served_in_lwk(fugaku_mckernel):
    p = fugaku_mckernel.spawn(memory_scale=0.001)
    assert p.syscall("getpid") == p.pid
    vma = p.syscall("mmap", mib(4))
    assert vma.length == mib(4)
    assert p.local_calls == 2
    assert p.delegated_calls == 0
    assert p.proxy.delegations == []  # nothing crossed IKC


def test_delegated_syscalls_ride_the_proxy(fugaku_mckernel):
    p = fugaku_mckernel.spawn(memory_scale=0.001)
    fd = p.syscall("open", "/data/input")
    assert fd == 3
    p.syscall("write", fd, 4096)
    assert p.delegated_calls == 2
    assert [d.name for d in p.proxy.delegations] == ["open", "write"]


def test_delegated_time_includes_ikc_round_trip(fugaku_mckernel):
    p = fugaku_mckernel.spawn(memory_scale=0.001)
    p.syscall("getpid")
    p.syscall("open", "/x")
    per_local = p.local_time / p.local_calls
    per_delegated = p.delegated_time / p.delegated_calls
    assert per_delegated > per_local
    assert per_delegated >= fugaku_mckernel.partition.ikc.round_trip


def test_mmap_is_large_page_backed(fugaku_mckernel):
    p = fugaku_mckernel.spawn(memory_scale=0.001)
    vma = p.syscall("mmap", mib(4))
    p.address_space.touch(vma, mib(4))
    # 4 MiB at 2 MiB contig pages: only 2 faults.
    assert p.address_space.stats.faults_by_kind[PageKind.CONTIG] == 2


def test_exit_counts_tlb_invalidations_and_kills_proxy(fugaku_mckernel):
    p = fugaku_mckernel.spawn(memory_scale=0.001)
    vma = p.syscall("mmap", mib(2))
    p.address_space.touch(vma, mib(2))
    invalidated = p.exit()
    assert invalidated == 32  # 2 MiB of 64 KiB PTEs
    assert not p.alive and not p.proxy.alive
    with pytest.raises(SyscallError, match="ESRCH"):
        p.syscall("getpid")
    with pytest.raises(SyscallError, match="ESRCH"):
        p.exit()


def test_generic_delegated_call_succeeds(fugaku_mckernel):
    p = fugaku_mckernel.spawn(memory_scale=0.001)
    assert p.syscall("getdents64", 3) == 0
    assert p.proxy.delegations[-1].name == "getdents64"


def test_munmap_syscall_roundtrip(fugaku_mckernel):
    p = fugaku_mckernel.spawn(memory_scale=0.001)
    vma = p.syscall("mmap", mib(2))
    p.address_space.touch(vma, mib(2))
    assert p.syscall("munmap", vma) == 32
