"""The fault-sensitivity experiment: deterministic under repetition and
parallelism, wired into the registry and the CLI."""

import pytest

from repro.cli import main
from repro.experiments import run_experiment
from repro.experiments.registry import EXPERIMENTS
from repro.perf import perf_context


def test_registered():
    assert "faults" in EXPERIMENTS


def test_renders_success_and_utilization(capsys):
    result = run_experiment("faults", fast=True)
    text = result.render()
    assert "faults" in text
    assert "linux" in text and "mckernel" in text
    assert "Success" in text and "Eff. util" in text
    assert result.data["by_os"]["linux"]
    assert result.data["by_os"]["mckernel"]
    assert result.data["fault_spec"]["node_mtbf_hours"] > 0


def test_repeat_runs_identical():
    a = run_experiment("faults", fast=True, seed=0)
    b = run_experiment("faults", fast=True, seed=0)
    assert a.render() == b.render()
    assert a.data == b.data


def test_jobs_value_does_not_change_output():
    """The experiment is pure in-process DES: --jobs must be a no-op."""
    serial = run_experiment("faults", fast=True, seed=0)
    with perf_context(jobs=4):
        parallel = run_experiment("faults", fast=True, seed=0)
    assert serial.render() == parallel.render()
    assert serial.data == parallel.data


def test_seed_moves_the_schedule():
    a = run_experiment("faults", fast=True, seed=0)
    b = run_experiment("faults", fast=True, seed=1)
    assert a.data != b.data


def test_cli_runs_faults_experiment(capsys):
    assert main(["experiment", "faults", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Success" in out


def test_cli_cache_verify(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
    (cache_dir / ("c" * 64 + ".json")).write_text("{bad")
    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
    out = capsys.readouterr().out
    assert "1 quarantined" in out
    assert (cache_dir / "quarantine" / ("c" * 64 + ".json")).exists()
    # The walk healed the tier; a second pass is clean.
    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0


@pytest.mark.faultsmoke
def test_full_scale_projection_degrades():
    """The soak: at full node counts the success rate must visibly drop
    below 100% somewhere, and goodput with it — on both kernels."""
    result = run_experiment("faults", fast=False, seed=0)
    for os_kind in ("linux", "mckernel"):
        reports = result.data["by_os"][os_kind]
        assert any(r["success_rate"] < 1.0 for r in reports)
        assert reports[-1]["effective_utilization"] < \
            reports[0]["effective_utilization"]


@pytest.mark.faultsmoke
def test_full_scale_is_deterministic():
    a = run_experiment("faults", fast=False, seed=0)
    with perf_context(jobs=4):
        b = run_experiment("faults", fast=False, seed=0)
    assert a.render() == b.render()
    assert a.data == b.data
