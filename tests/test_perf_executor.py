"""Deterministic parallel execution: jobs>1 must be byte-identical to
serial, and pool failures must degrade to serial, never to an error."""

from __future__ import annotations

import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.appfigs import sweep_apps
from repro.obs.metrics import MetricsRegistry
from repro.perf import (
    RunCell,
    execute_cells,
    get_context,
    perf_context,
)
from repro.perf import executor as executor_mod
from repro.platform import RunSpec, compare_platforms, get_platform

OFP = get_platform("ofp-default")


def ofp_cells(app, node_counts, os_kinds=("linux",)):
    """One single-trial, seed-0 cell per (node count, kernel) on OFP."""
    return [RunCell(RunSpec(platform=OFP.with_os(kind), app=app,
                            n_nodes=n, n_runs=1))
            for n in node_counts for kind in os_kinds]


def assert_results_equal(a, b):
    """Bit-for-bit equality of two RunResults."""
    assert a.times == b.times
    assert a.breakdown == b.breakdown
    assert (a.app, a.machine, a.os_kind, a.n_nodes, a.n_threads) == \
           (b.app, b.machine, b.os_kind, b.n_nodes, b.n_threads)


def test_compare_parallel_matches_serial():
    serial = compare_platforms(OFP, "LQCD", [16, 64], n_runs=2, seed=3)
    with perf_context(jobs=4):
        parallel = compare_platforms(OFP, "LQCD", [16, 64], n_runs=2,
                                     seed=3)
    assert len(serial) == len(parallel) == 2
    for s, p in zip(serial, parallel):
        assert s.n_nodes == p.n_nodes
        assert_results_equal(s.linux, p.linux)
        assert_results_equal(s.mckernel, p.mckernel)


def test_sweep_apps_parallel_matches_serial():
    kwargs = dict(platform=OFP,
                  apps=["AMG2013", "Milc"], node_counts=[16, 64],
                  n_runs=2, seed=7)
    serial = sweep_apps(**kwargs)
    with perf_context(jobs=4):
        parallel = sweep_apps(**kwargs)
    assert serial.keys() == parallel.keys()
    for app in serial:
        for s, p in zip(serial[app], parallel[app]):
            assert s.n_nodes == p.n_nodes
            assert_results_equal(s.linux, p.linux)
            assert_results_equal(s.mckernel, p.mckernel)


def test_fig5_parallel_render_identical():
    serial = run_experiment("fig5", fast=True, seed=0)
    with perf_context(jobs=4):
        parallel = run_experiment("fig5", fast=True, seed=0)
    assert parallel.render() == serial.render()
    assert parallel.data == serial.data


def test_cell_order_is_preserved():
    cells = ofp_cells("Milc", (16, 64, 256), ("linux", "mckernel"))
    with perf_context(jobs=4):
        results = execute_cells(cells)
    for cell, result in zip(cells, results):
        assert result.n_nodes == cell.spec.n_nodes
        assert result.os_kind == cell.spec.platform.os_kind


def test_pool_failure_degrades_to_serial(monkeypatch):
    cells = ofp_cells("AMG2013", (16, 64))
    reference = execute_cells(cells)

    def broken_pool(pool, todo, jobs, timeout):
        raise BrokenProcessPool("worker died")

    monkeypatch.setattr(executor_mod, "_run_pool", broken_pool)
    counters = MetricsRegistry()
    with perf_context(jobs=4, counters=counters):
        results = execute_cells(cells)
        assert get_context()._pool.broken
    assert counters.counts["executor.pool_failures"] == 1
    assert counters.counts["executor.serial_cells"] == len(cells)
    for r, ref in zip(results, reference):
        assert_results_equal(r, ref)


def test_unpicklable_payload_degrades_to_serial(monkeypatch):
    cells = ofp_cells("AMG2013", (16, 64))
    reference = execute_cells(cells)

    def unpicklable(pool, todo, jobs, timeout):
        raise pickle.PicklingError("can't pickle")

    monkeypatch.setattr(executor_mod, "_run_pool", unpicklable)
    with perf_context(jobs=4):
        results = execute_cells(cells)
    for r, ref in zip(results, reference):
        assert_results_equal(r, ref)


def test_model_errors_propagate(ofp_machine):
    # RunSpec accepts any positive node count; the model refuses one
    # beyond the machine.
    bad = RunCell(RunSpec(platform=OFP, app="AMG2013",
                          n_nodes=ofp_machine.n_nodes + 1, n_runs=1))
    with pytest.raises(ConfigurationError, match="n_nodes"):
        execute_cells([bad])


def test_counters_record_fanout():
    cells = ofp_cells("Lulesh", (16, 64, 256))
    counters = MetricsRegistry()
    with perf_context(jobs=1, counters=counters):
        execute_cells(cells)
    assert counters.counts["executor.cells"] == 3
    assert counters.counts["executor.serial_cells"] == 3
    assert "executor.compute" in counters.timings


def test_partial_pool_failure_retries_only_unfinished(
        monkeypatch, caplog):
    """A mid-batch pool death keeps the harvested results: the warning
    names the failing cell's key and only the remainder is re-run."""
    cells = ofp_cells("AMG2013", (16, 64, 256))
    reference = execute_cells(cells)

    calls = []
    by_key = {c.key(): r for c, r in zip(cells, reference)}

    def flaky(pool, todo, jobs, timeout):
        calls.append([c.key() for c in todo])
        if len(calls) == 1:
            # First cell finished, second blew up the pool.
            raise executor_mod._PartialPoolFailure(
                done={0: by_key[todo[0].key()]}, failed_index=1,
                cause="BrokenProcessPool: worker died")
        return [by_key[c.key()] for c in todo]

    monkeypatch.setattr(executor_mod, "_run_pool", flaky)
    counters = MetricsRegistry()
    with caplog.at_level("WARNING", logger="repro.perf.executor"):
        with perf_context(jobs=4, counters=counters):
            results = execute_cells(cells)
    assert len(calls) == 2
    assert calls[0] == [c.key() for c in cells]
    assert calls[1] == [cells[1].key(), cells[2].key()]  # only unfinished
    assert cells[1].key() in caplog.text  # the failing cell is named
    # Soak logs must attribute each warning to a specific retry attempt.
    assert "retry attempt 1/2" in caplog.text
    assert counters.counts["executor.pool_failures"] == 1
    assert counters.counts["executor.cell_retries"] == 1
    assert "executor.serial_cells" not in counters.counts
    for r, ref in zip(results, reference):
        assert_results_equal(r, ref)


def test_partial_results_survive_total_pool_collapse(
        monkeypatch):
    """Even when every retry fails, harvested results are kept and only
    the remainder runs serially."""
    cells = ofp_cells("AMG2013", (16, 64))
    reference = execute_cells(cells)
    by_key = {c.key(): r for c, r in zip(cells, reference)}

    def always_failing(pool, todo, jobs, timeout):
        done = {0: by_key[todo[0].key()]} if len(todo) > 1 else {}
        raise executor_mod._PartialPoolFailure(
            done=done, failed_index=len(done),
            cause="timeout: cell exceeded budget")

    monkeypatch.setattr(executor_mod, "_run_pool", always_failing)
    counters = MetricsRegistry()
    with perf_context(jobs=4, counters=counters, max_retries=1):
        results = execute_cells(cells)
    assert counters.counts["executor.pool_failures"] == 1
    # Cell 0 was harvested on the first attempt; only cell 1 fell
    # through to the serial path.
    assert counters.counts["executor.serial_cells"] == 1
    for r, ref in zip(results, reference):
        assert_results_equal(r, ref)


def test_zero_retries_goes_straight_to_serial(monkeypatch):
    cells = ofp_cells("AMG2013", (16, 64))
    reference = execute_cells(cells)

    calls = []

    def broken(pool, todo, jobs, timeout):
        calls.append(len(todo))
        raise BrokenProcessPool("worker died")

    monkeypatch.setattr(executor_mod, "_run_pool", broken)
    with perf_context(jobs=4, max_retries=0):
        results = execute_cells(cells)
    assert calls == [2]  # one attempt, no retry
    for r, ref in zip(results, reference):
        assert_results_equal(r, ref)


def test_cell_timeout_still_produces_full_results():
    """An absurdly small per-cell budget may expire the pool attempts,
    but the serial fallback still completes the sweep byte-identically."""
    cells = ofp_cells("AMG2013", (16, 64))
    reference = execute_cells(cells)
    with perf_context(jobs=2, cell_timeout=1e-6, max_retries=1):
        results = execute_cells(cells)
    for r, ref in zip(results, reference):
        assert_results_equal(r, ref)
