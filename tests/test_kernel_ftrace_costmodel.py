"""ftrace tracing and the kernel cost models."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel.costmodel import CostModel, LINUX_COSTS, MCKERNEL_COSTS
from repro.kernel.ftrace import Ftrace, TraceEvent
from repro.kernel.pagetable import PageKind
from repro.units import mib


# --- ftrace ----------------------------------------------------------------

def _ev(ts, cpu, actor, dur=1e-6, event="sched_switch"):
    return TraceEvent(timestamp=ts, cpu_id=cpu, actor=actor,
                      event=event, duration=dur)


def test_tracing_requires_start():
    ft = Ftrace()
    ft.record(_ev(0.0, 0, "kworker/0:1"))
    assert ft.events == []
    ft.start()
    ft.record(_ev(1.0, 0, "kworker/0:1"))
    assert len(ft.events) == 1
    ft.stop()
    ft.record(_ev(2.0, 0, "kworker/0:1"))
    assert len(ft.events) == 1


def test_ring_buffer_drops_oldest():
    ft = Ftrace(buffer_size=3)
    ft.start()
    for i in range(5):
        ft.record(_ev(float(i), 0, f"a{i}"))
    assert ft.dropped == 2
    assert [e.actor for e in ft.events] == ["a2", "a3", "a4"]


def test_filter_by_cpu_actor_predicate():
    ft = Ftrace()
    ft.start()
    ft.record(_ev(0.0, 0, "kworker/0:1"))
    ft.record(_ev(1.0, 5, "kworker/5:0"))
    ft.record(_ev(2.0, 5, "irq/64-tofu", dur=5e-6))
    assert len(ft.filter(cpus=[5])) == 2
    assert len(ft.filter(actors=["irq/64-tofu"])) == 1
    assert len(ft.filter(predicate=lambda e: e.duration > 2e-6)) == 1


def test_interference_report_ranks_worst_first():
    # The §4.2.1 workflow: find which actors steal app-core time.
    ft = Ftrace()
    ft.start()
    for _ in range(10):
        ft.record(_ev(0.0, 2, "kworker/2:1", dur=30e-6))
    for _ in range(2):
        ft.record(_ev(0.0, 2, "blk-mq", dur=300e-6))
    ft.record(_ev(0.0, 0, "daemon-on-system-core", dur=1.0))  # not an app cpu
    report = ft.interference_report(app_cpus=[2, 3])
    assert [s.actor for s in report] == ["blk-mq", "kworker/2:1"]
    assert report[0].total_time == pytest.approx(600e-6)
    assert report[0].max_duration == pytest.approx(300e-6)
    assert report[1].count == 10


def test_clear_resets():
    ft = Ftrace(buffer_size=1)
    ft.start()
    ft.record(_ev(0.0, 0, "x"))
    ft.record(_ev(0.0, 0, "y"))
    ft.clear()
    assert ft.events == [] and ft.dropped == 0


# --- cost models -----------------------------------------------------------

def test_mckernel_local_syscall_cheaper_than_linux():
    assert MCKERNEL_COSTS.syscall_cost() < LINUX_COSTS.syscall_cost()


def test_delegation_makes_mckernel_syscalls_expensive():
    assert MCKERNEL_COSTS.syscall_cost(delegated=True) > \
        LINUX_COSTS.syscall_cost()
    assert LINUX_COSTS.syscall_cost(delegated=True) == \
        LINUX_COSTS.syscall_cost()  # Linux never delegates


def test_lwk_fault_path_leaner():
    page = 2 * 1024 * 1024
    assert MCKERNEL_COSTS.page_fault_cost(page, PageKind.CONTIG) < \
        LINUX_COSTS.page_fault_cost(page, PageKind.CONTIG)


def test_fault_cost_dominated_by_zeroing_for_huge_pages():
    cost = LINUX_COSTS.page_fault_cost(512 * 1024 * 1024, PageKind.HUGE)
    zero_time = 512 * 1024 * 1024 / LINUX_COSTS.zero_bandwidth
    assert cost == pytest.approx(zero_time, rel=0.01)


def test_populate_cost_scales_with_fault_count():
    one = LINUX_COSTS.populate_cost(mib(64), 64 * 1024, PageKind.BASE)
    contig = LINUX_COSTS.populate_cost(mib(64), 2 * 1024 * 1024,
                                       PageKind.CONTIG)
    # Same zeroing volume, 32x fewer fixed costs.
    assert contig < one
    assert LINUX_COSTS.populate_cost(0, 4096, PageKind.BASE) == 0.0


def test_cost_model_validation():
    with pytest.raises(ConfigurationError):
        CostModel(name="bad", syscall=-1, delegation_overhead=0,
                  fault_fixed=0, fault_huge_extra=0, zero_bandwidth=1,
                  ioctl_extra=0)
    with pytest.raises(ConfigurationError):
        CostModel(name="bad", syscall=0, delegation_overhead=0,
                  fault_fixed=0, fault_huge_extra=0, zero_bandwidth=0,
                  ioctl_extra=0)
    with pytest.raises(ConfigurationError):
        LINUX_COSTS.page_fault_cost(0, PageKind.BASE)
    with pytest.raises(ConfigurationError):
        LINUX_COSTS.populate_cost(-1, 4096, PageKind.BASE)
