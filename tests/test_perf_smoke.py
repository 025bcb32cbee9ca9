"""Opt-in wall-clock benchmarks behind the CI speed budget.

Excluded from the default run (see ``-m "not perfsmoke"`` in
pyproject.toml); run with ``pytest -m perfsmoke``.  Every test records
its timings into ``benchmarks/out/BENCH_perfsmoke.json`` in the plain
``{name: seconds}`` format ``tools/bench_compare.py`` consumes; the CI
``perf`` job then enforces ``benchmarks/budgets.json`` against the
committed baseline in ``benchmarks/baselines/``.

Two kinds of entries land in the file:

* absolute seconds (``perfsmoke_serial_uncached``,
  ``sweep_multitrial_32trials``, ...) — machine-dependent, guarded only
  by generous ``max_regression_pct`` budgets;
* same-run pairs (``apprunner_64trials_loop`` vs
  ``..._batched``, ``mpi_fwq_dense`` vs ``..._streamed``,
  ``table2_stats_dense`` vs ``..._sparse``, ``claim_next_cold`` vs
  ``..._memo``) — their ratio is
  machine-independent, so the budget ``min_speedup``/``vs`` rules on
  them are the hard CI gates.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import time

import numpy as np
import pytest

from repro.apps import ALL_PROFILES
from repro.apps.fwq import FwqConfig, run_mpi_fwq
from repro.experiments import run_experiment
from repro.noise import (
    multi_core_fwq,
    noise_sources_for,
    pooled_fwq_stats,
    worst_nodes,
)
from repro.perf import RunCache, perf_context
from repro.platform import get_platform
from repro.platform.resolve import build, sweep_platform_apps
from repro.runtime.runner import AppRunner
from repro.service import JobQueue, JobSpec, job_id_for

FIGURES = ["fig5", "fig6", "fig7"]
ROUNDS = 4  # regeneration rounds: an edit-render-inspect loop
APPS = ["AMG2013", "Milc", "Lulesh"]
NODE_COUNTS = [16, 64, 256, 1024, 4096, 8192]
OUT = pathlib.Path(__file__).parent.parent / "benchmarks" / "out"

#: Accumulated timings of this pytest invocation; re-written on every
#: record so a partial run still leaves a parseable file.
_TIMINGS: dict[str, float] = {}


def _record(**entries: float) -> None:
    _TIMINGS.update(entries)
    OUT.mkdir(exist_ok=True)
    (OUT / "BENCH_perfsmoke.json").write_text(
        json.dumps(_TIMINGS, indent=2, sort_keys=True) + "\n")


def _best_of(k: int, fn) -> float:
    ts = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def _auto_jobs() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def _regenerate() -> list[str]:
    return [run_experiment(f, fast=False, seed=0).render()
            for f in FIGURES]


@pytest.mark.perfsmoke
def test_parallel_plus_cache_speedup(tmp_path):
    # Baseline: ROUNDS serial, uncached regenerations.
    t0 = time.perf_counter()
    baseline_renders = [_regenerate() for _ in range(ROUNDS)]
    serial_s = time.perf_counter() - t0

    # Optimized: same rounds under one context — parallel fan-out on
    # the cold round, cache replay on the warm ones.
    jobs = _auto_jobs()
    t0 = time.perf_counter()
    with perf_context(jobs=jobs, cache=RunCache(tmp_path)):
        optimized_renders = [_regenerate() for _ in range(ROUNDS)]
    optimized_s = time.perf_counter() - t0

    assert optimized_renders == baseline_renders  # byte-identical
    speedup = serial_s / optimized_s
    _record(perfsmoke_serial_uncached=serial_s,
            perfsmoke_optimized=optimized_s)
    print(f"\n{ROUNDS} rounds of {'+'.join(FIGURES)} (full mode, "
          f"jobs={jobs}): serial/uncached {serial_s:.3f} s, "
          f"parallel+cached {optimized_s:.3f} s -> {speedup:.1f}x")
    assert speedup >= 2.0, (
        f"expected >= 2x, got {speedup:.2f}x "
        f"({serial_s:.3f} s vs {optimized_s:.3f} s)"
    )


@pytest.mark.perfsmoke
def test_multitrial_sweep_wall_time():
    """The budget benchmark from the vectorization PR: a serial,
    uncached 32-trial sweep over the Figs. 5-7 grid.  Recorded as
    absolute seconds; ``benchmarks/budgets.json`` requires >= 2x over
    the committed pre-vectorization baseline."""
    # Warm platform resolution caches so we time the sweep, not the
    # build (same recipe as the committed baseline capture).
    run_experiment("fig5", fast=False, seed=0)
    platform = get_platform("ofp-default")

    def sweep32():
        sweep_platform_apps(platform, APPS, NODE_COUNTS, 32, 0)

    t = _best_of(3, sweep32)
    _record(sweep_multitrial_32trials=t)
    print(f"\n32-trial {len(APPS)}x{len(NODE_COUNTS)}x2 sweep "
          f"(serial, uncached): {t:.3f} s best-of-3")


@pytest.mark.perfsmoke
def test_multitrial_sweep_adaptive_wall_time():
    """The same grid under variance-adaptive early stopping: cells stop
    drawing trials once the 95% CI half-width of their mean wall time
    is within 5% of the mean (capped at the same 32 trials).  The
    budget requires >= 2x over the committed fixed-32 baseline and a
    machine-independent >= 3x over this run's own fixed-32 sweep."""
    run_experiment("fig5", fast=False, seed=0)
    platform = get_platform("ofp-default")

    def sweep_adaptive():
        with perf_context(target_ci=0.05, max_adaptive_runs=32):
            sweep_platform_apps(platform, APPS, NODE_COUNTS, 2, 0)

    t = _best_of(3, sweep_adaptive)
    _record(sweep_multitrial_adaptive=t)
    print(f"\nadaptive (target_ci=5%, cap 32) sweep: {t:.3f} s "
          f"best-of-3")


@pytest.mark.perfsmoke
def test_trial_batching_bit_identical_and_faster():
    """Same-run loop-vs-batched pair: AppRunner's batched noise
    sampling must return bit-identical trial times and beat the
    per-trial loop.  The ratio of the two entries is machine-free and
    is a hard ``vs`` budget gate."""
    resolved = build(get_platform("ofp-default"))
    runner = AppRunner(resolved.machine, ALL_PROFILES["AMG2013"](),
                       seed=0)
    os_instance, n = resolved.os_instance, 1024

    looped = runner.run(os_instance, n, n_runs=64, batch_trials=False)
    batched = runner.run(os_instance, n, n_runs=64, batch_trials=True)
    assert batched.times == looped.times  # bitwise, not approx
    assert batched == looped

    t_loop = _best_of(
        3, lambda: runner.run(os_instance, n, n_runs=64,
                              batch_trials=False))
    t_batch = _best_of(
        3, lambda: runner.run(os_instance, n, n_runs=64,
                              batch_trials=True))
    _record(apprunner_64trials_loop=t_loop,
            apprunner_64trials_batched=t_batch)
    print(f"\nAppRunner 64 trials @ {n} nodes: loop {t_loop:.4f} s, "
          f"batched {t_batch:.4f} s -> {t_loop / t_batch:.1f}x")


@pytest.mark.perfsmoke
def test_mpi_fwq_streamed_selection_faster_than_dense():
    """Same-run dense-vs-streamed pair: the MPI-FWQ worst-node
    selection ranked through one reused row must report the same
    maximum as the dense (nodes, iterations) timeline and beat it.
    The ratio is a hard ``vs`` budget gate."""
    os_instance = build(get_platform("fugaku-production")).os_instance
    config = FwqConfig(duration=360.0)
    nodes, keep = 128, 100
    sources = noise_sources_for(os_instance, include_stragglers=True)

    def dense() -> float:
        per_node = multi_core_fwq(sources, config.quantum,
                                  config.iterations_per_run, nodes,
                                  np.random.default_rng(0))
        return float(worst_nodes(per_node, keep).max())

    def streamed() -> float:
        return run_mpi_fwq(os_instance, nodes, config,
                           np.random.default_rng(0), keep_worst=keep,
                           max_explicit_nodes=nodes).max_length

    assert streamed() == dense()
    t_dense = _best_of(5, dense)
    t_streamed = _best_of(5, streamed)
    _record(mpi_fwq_dense=t_dense, mpi_fwq_streamed=t_streamed)
    print(f"\nMPI-FWQ worst {keep} of {nodes} nodes x "
          f"{config.iterations_per_run} iterations: dense {t_dense:.4f} s, "
          f"streamed {t_streamed:.4f} s -> {t_dense / t_streamed:.1f}x")


@pytest.mark.perfsmoke
def test_table2_sparse_stats_faster_than_dense():
    """Same-run dense-vs-sparse pair on one full-mode Table 2 row (16
    cores x 1 hour of 6.5 ms quanta): the statistics reduced from the
    charged slots must equal the dense pooled series' in-place
    reduction bit for bit and beat it.  The ratio is a hard ``vs``
    budget gate."""
    config = FwqConfig(duration=3600.0)
    shape = (build(get_platform("a64fx-testbed")).noise_sources(),
             config.quantum, config.iterations_per_run, 16)

    def dense() -> "tuple[float, float, float]":
        lengths = multi_core_fwq(*shape, np.random.default_rng(0)).ravel()
        t_min = float(lengths.min())
        max_noise = float(lengths.max()) - t_min
        np.subtract(lengths, t_min, out=lengths)
        np.divide(lengths, t_min, out=lengths)
        return t_min, max_noise, float(lengths.mean())

    def sparse() -> "tuple[float, float, float]":
        return pooled_fwq_stats(*shape, np.random.default_rng(0))

    assert sparse() == dense()
    t_dense = _best_of(5, dense)
    t_sparse = _best_of(5, sparse)
    _record(table2_stats_dense=t_dense, table2_stats_sparse=t_sparse)
    print(f"\nTable 2 row, 16 x {config.iterations_per_run} iterations: "
          f"dense {t_dense:.4f} s, sparse {t_sparse:.4f} s -> "
          f"{t_dense / t_sparse:.1f}x")


def _retrying_journal(root: pathlib.Path, jobs: int) -> None:
    """A service directory whose journal holds ``4 * jobs`` records:
    every job submitted, claimed, run and sent back to RETRYING, so
    every job is claimable again."""
    queue = JobQueue(root, durable=False)
    jobspec = JobSpec.for_experiment("eq1")
    data = jobspec.canonical_json() + "\n"
    ids = [job_id_for(seq, jobspec) for seq in range(jobs)]
    for job_id in ids:
        (queue.jobs_dir / f"{job_id}.json").write_text(data)
        queue.journal.append({"type": "submit", "job": job_id,
                              "kind": jobspec.kind})
    for job_id in ids:
        for rtype in ("claim", "run", "retry"):
            queue.journal.append({"type": rtype, "job": job_id,
                                  "worker": "w0", "attempt": 0,
                                  "error": "lost"})


@pytest.mark.perfsmoke
def test_claim_next_memoised_fold_faster_than_cold_refold(tmp_path):
    """Same-run cold-vs-memoised pair: ``claim_next`` on a 10^4-record
    journal, once through a queue whose fold memo is warm and once
    through a fresh queue per claim, which refolds the whole journal.
    Both claim the same jobs in the same order.  The ratio is a hard
    ``vs`` budget gate."""
    claims = 20
    _retrying_journal(tmp_path / "memo", jobs=2500)
    shutil.copytree(tmp_path / "memo", tmp_path / "cold")
    warm = JobQueue(tmp_path / "memo", durable=False)
    assert warm.fold.update().records == 10_000

    def timed(claim) -> "tuple[float, str]":
        t0 = time.perf_counter()
        job_id = claim()[0]
        return time.perf_counter() - t0, job_id

    memo = [timed(lambda: warm.claim_next("w1")) for _ in range(claims)]
    cold = [timed(lambda: JobQueue(tmp_path / "cold", create=False,
                                   durable=False).claim_next("w1"))
            for _ in range(claims)]
    assert [job for _, job in memo] == [job for _, job in cold]
    t_memo = min(t for t, _ in memo)
    t_cold = min(t for t, _ in cold)
    _record(claim_next_cold=t_cold, claim_next_memo=t_memo)
    print(f"\nclaim_next on a 10^4-record journal: cold refold "
          f"{t_cold * 1e3:.2f} ms, memoised {t_memo * 1e3:.2f} ms -> "
          f"{t_cold / t_memo:.1f}x")
