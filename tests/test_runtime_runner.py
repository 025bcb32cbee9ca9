"""The experiment runner: composition, determinism, paper mechanisms."""

import pytest

from repro.apps.base import InitPhase, WorkloadProfile
from repro.errors import ConfigurationError
from repro.platform import compare_platforms, get_platform
from repro.runtime.runner import AppRunner
from repro.units import mib


def _toy_profile(**kw):
    defaults = dict(
        name="toy", description="", scaling="weak", reference_nodes=16,
        sync_interval=5e-3, iterations=50, variability=0.0,
    )
    defaults.update(kw)
    return WorkloadProfile(**defaults)


def test_run_is_deterministic(fugaku_machine, fugaku_linux):
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=3)
    a = runner.run(fugaku_linux, 128)
    b = runner.run(fugaku_linux, 128)
    assert a.times == b.times


def test_seed_changes_results(fugaku_machine, fugaku_linux):
    p = _toy_profile()
    a = AppRunner(fugaku_machine, p, seed=1).run(fugaku_linux, 4096)
    b = AppRunner(fugaku_machine, p, seed=2).run(fugaku_linux, 4096)
    assert a.times != b.times


def test_breakdown_sums_to_total(fugaku_machine, fugaku_linux):
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=0)
    result = runner.run(fugaku_linux, 256, n_runs=1)
    # With variability=0 the run time equals the breakdown total.
    assert result.times[0] == pytest.approx(result.breakdown.total, rel=1e-9)


def test_compute_dominates_when_clean(fugaku_machine, fugaku_mckernel):
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=0)
    result = runner.run(fugaku_mckernel, 64, n_runs=1)
    assert result.breakdown.compute > 0.9 * result.breakdown.total


def test_churn_charged_to_linux_not_mckernel(
        fugaku_machine, fugaku_linux, fugaku_mckernel):
    profile = _toy_profile(churn_bytes=mib(16))
    runner = AppRunner(fugaku_machine, profile, seed=0)
    lin = runner.run(fugaku_linux, 64, n_runs=1)
    mck = runner.run(fugaku_mckernel, 64, n_runs=1)
    assert lin.breakdown.churn > 100 * mck.breakdown.churn


def test_noise_term_grows_with_scale(fugaku_machine, ofp_machine,
                                     ofp_linux):
    profile = _toy_profile()
    runner = AppRunner(ofp_machine, profile, seed=0)
    small = runner.run(ofp_linux, 16, n_runs=1)
    large = runner.run(ofp_linux, 8192, n_runs=1)
    assert large.breakdown.noise > 2 * small.breakdown.noise
    # Compute does not change under weak scaling.
    assert large.breakdown.compute == pytest.approx(small.breakdown.compute)


def test_registration_heavy_init_hurts_fugaku_linux(
        fugaku_machine, fugaku_linux, fugaku_mckernel):
    profile = _toy_profile(
        init=InitPhase(reg_count=256, reg_bytes_each=mib(16), reg_repeats=6),
    )
    runner = AppRunner(fugaku_machine, profile, seed=0)
    lin = runner.run(fugaku_linux, 64, n_runs=1)
    mck = runner.run(fugaku_mckernel, 64, n_runs=1)
    assert lin.breakdown.init > mck.breakdown.init * 5


def test_thp_churn_adds_compaction_noise(ofp_machine, ofp_linux):
    quiet = _toy_profile()
    churny = _toy_profile(churn_bytes=mib(16))
    at = 4096
    quiet_noise = AppRunner(ofp_machine, quiet, seed=0).run(
        ofp_linux, at, n_runs=1).breakdown.noise
    churn_noise = AppRunner(ofp_machine, churny, seed=0).run(
        ofp_linux, at, n_runs=1).breakdown.noise
    assert churn_noise > quiet_noise * 1.5


def test_result_metadata(fugaku_machine, fugaku_linux):
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=0)
    result = runner.run(fugaku_linux, 128, n_runs=4)
    assert result.machine == "Fugaku"
    assert result.os_kind == "linux"
    assert result.n_threads == 128 * 48
    assert len(result.times) == 4
    assert result.std_time >= 0.0


def test_node_count_bounds(fugaku_machine, fugaku_linux):
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=0)
    with pytest.raises(ConfigurationError):
        runner.run(fugaku_linux, 0)
    with pytest.raises(ConfigurationError):
        runner.run(fugaku_linux, fugaku_machine.n_nodes + 1)
    with pytest.raises(ConfigurationError):
        runner.run(fugaku_linux, 16, n_runs=0)


def test_compare_pairs_and_relative_performance():
    comps = compare_platforms(get_platform("fugaku-production"), "GAMERA",
                              [512, 8192], n_runs=2, seed=0)
    assert [c.n_nodes for c in comps] == [512, 8192]
    for c in comps:
        assert c.relative_performance == pytest.approx(
            c.linux.mean_time / c.mckernel.mean_time)
        assert c.speedup_percent == pytest.approx(
            (c.relative_performance - 1) * 100)
    # The GAMERA mechanism: gain grows with scale.
    assert comps[1].relative_performance > comps[0].relative_performance


def test_variability_produces_error_bars(fugaku_machine, fugaku_linux):
    profile = _toy_profile(variability=0.05)
    runner = AppRunner(fugaku_machine, profile, seed=0)
    result = runner.run(fugaku_linux, 64, n_runs=5)
    assert result.std_time > 0.0


def test_ci95_contains_mean(fugaku_machine, fugaku_linux):
    profile = _toy_profile(variability=0.05)
    runner = AppRunner(fugaku_machine, profile, seed=0)
    result = runner.run(fugaku_linux, 64, n_runs=6)
    lo, hi = result.ci95()
    assert lo < result.mean_time < hi
    single = runner.run(fugaku_linux, 64, n_runs=1)
    assert single.ci95() == (single.mean_time, single.mean_time)
