"""System task populations and tuning presets (Table 1 / Table 2)."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.tlb import TlbFlushMode
from repro.kernel.tasks import (
    BindingRule,
    SystemTask,
    ofp_task_population,
    standard_task_population,
    task_by_name,
    timer_tick_task,
)
from repro.kernel.tuning import (
    Countermeasure,
    LargePagePolicy,
    LinuxTuning,
    fugaku_production,
    ofp_default,
    untuned,
)
from repro.sim.distributions import Fixed


def test_standard_population_covers_table2_rows():
    names = {t.name for t in standard_task_population()}
    assert names == {
        "daemons", "kworker", "blk-mq", "pmu-read", "tlbi-broadcast", "sar",
    }


def test_calibrated_duty_cycles_match_table2_rate_deltas():
    tasks = {t.name: t for t in standard_task_population()}
    # Baseline (sar only): Eq. 2 rate 3.79e-6.
    assert tasks["sar"].duty_cycle() == pytest.approx(3.79e-6, rel=0.02)
    # Deltas vs baseline from Table 2.
    assert tasks["daemons"].duty_cycle() == pytest.approx(9.9e-4, rel=0.05)
    assert tasks["kworker"].duty_cycle() == pytest.approx(0.79e-6, rel=0.05)
    assert tasks["blk-mq"].duty_cycle() == pytest.approx(0.79e-6, rel=0.05)
    assert tasks["pmu-read"].duty_cycle() == pytest.approx(4.48e-6, rel=0.05)


def test_max_burst_lengths_match_table2_maxima():
    tasks = {t.name: t for t in standard_task_population()}
    assert tasks["sar"].duration.upper == pytest.approx(50.44e-6)
    assert tasks["daemons"].duration.upper == pytest.approx(20.347e-3)
    assert tasks["kworker"].duration.upper == pytest.approx(266.34e-6)
    assert tasks["blk-mq"].duration.upper == pytest.approx(387.91e-6)
    assert tasks["pmu-read"].duration.upper == pytest.approx(103.09e-6)
    assert tasks["tlbi-broadcast"].duration.upper == pytest.approx(90.2e-6)


def test_binding_rules_reflect_mechanisms():
    tasks = {t.name: t for t in standard_task_population()}
    assert tasks["daemons"].binding is BindingRule.CGROUP
    assert tasks["kworker"].binding is BindingRule.KWORKER_MASK
    assert tasks["blk-mq"].binding is BindingRule.BLK_MQ_MASK
    assert tasks["pmu-read"].binding is BindingRule.PER_JOB_STOP
    assert tasks["sar"].binding is BindingRule.UNSTOPPABLE


def test_global_effect_flags():
    tasks = {t.name: t for t in standard_task_population()}
    assert tasks["pmu-read"].global_effect  # IPIs to all cores
    assert tasks["tlbi-broadcast"].global_effect
    assert not tasks["kworker"].global_effect


def test_ofp_population_is_lighter_on_daemons():
    ofp = {t.name: t for t in ofp_task_population()}
    std = {t.name: t for t in standard_task_population()}
    assert ofp["daemons"].duty_cycle() < std["daemons"].duty_cycle()
    assert "pmu-read" not in ofp  # no TCS on OFP
    assert "tlbi-broadcast" not in ofp  # x86 has no broadcast TLBI


def test_timer_tick_task():
    tick = timer_tick_task(100.0)
    assert tick.interval == pytest.approx(0.01)
    with pytest.raises(ConfigurationError):
        timer_tick_task(0.0)


def test_task_by_name():
    tasks = standard_task_population()
    assert task_by_name(tasks, "sar").name == "sar"
    with pytest.raises(ConfigurationError):
        task_by_name(tasks, "nonexistent")


def test_system_task_validation():
    with pytest.raises(ConfigurationError):
        SystemTask(name="x", binding=BindingRule.CGROUP, interval=0.0,
                   duration=Fixed(1e-6))


# --- tuning presets -------------------------------------------------------

def test_fugaku_production_is_fully_tuned():
    t = fugaku_production()
    assert t.nohz_full and t.cgroup_cpu_isolation and t.irq_to_assistant
    assert t.bind_kworkers and t.bind_blkmq and t.stop_pmu_reads
    assert t.sector_cache
    assert t.large_pages is LargePagePolicy.HUGETLBFS
    assert t.tlb_flush_mode is TlbFlushMode.LOCAL_ONLY
    assert t.sar_enabled  # operationally required, cannot be off
    for cm in Countermeasure:
        assert t.countermeasure_enabled(cm)


def test_ofp_default_is_moderately_tuned():
    t = ofp_default()
    assert t.nohz_full  # Table 1: yes
    assert not t.cgroup_cpu_isolation  # Table 1: no CPU isolation
    assert not t.irq_to_assistant  # IRQs balanced across chip
    assert t.large_pages is LargePagePolicy.THP
    assert t.tlb_flush_mode is TlbFlushMode.IPI  # x86


def test_untuned_has_everything_off():
    t = untuned()
    for cm in Countermeasure:
        assert not t.countermeasure_enabled(cm) or (
            cm is Countermeasure.TLB_LOCAL_PATCH
            and t.tlb_flush_mode is TlbFlushMode.LOCAL_ONLY
        )
    assert t.large_pages is LargePagePolicy.NONE


def test_disable_flips_exactly_one_countermeasure():
    base = fugaku_production()
    for cm in Countermeasure:
        modified = base.disable(cm)
        assert not modified.countermeasure_enabled(cm)
        for other in Countermeasure:
            if other is not cm:
                assert modified.countermeasure_enabled(other)
        assert cm.value in modified.name


def test_tick_hz_positive():
    with pytest.raises(ConfigurationError):
        LinuxTuning(name="bad", tick_hz=0.0)
