"""The fault-tolerant batch scheduler: RUNNING -> RESTARTING -> FAILED
state machine, backoff, checkpoint/restart accounting, and metrics."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultSpec, RetryPolicy, CheckpointPolicy
from repro.runtime.batchsched import (
    BatchJob,
    BatchScheduler,
    JobState,
    OsChoice,
)
from repro.sim.engine import Engine

#: Aggressive enough that a multi-hour job on many nodes always dies.
LETHAL = FaultSpec(node_mtbf_hours=1.0, max_retries=2, backoff_base=10.0,
                   backoff_factor=2.0, seed=0)
#: Mild enough that small jobs usually survive.
MILD = FaultSpec(node_mtbf_hours=1e7, seed=0)


def _run(faults, jobs, nodes=64):
    eng = Engine()
    sched = BatchScheduler(eng, total_nodes=nodes, faults=faults)
    submitted = [sched.submit(j) for j in jobs]
    makespan = eng.run()
    return sched, submitted, makespan


def test_submit_validates_node_count():
    """A job wider than the machine is rejected at submit time."""
    eng = Engine()
    sched = BatchScheduler(eng, total_nodes=8)
    with pytest.raises(ConfigurationError) as err:
        sched.submit(BatchJob("huge", n_nodes=9, runtime=10, estimate=10))
    assert "huge" in str(err.value)
    # ... with or without fault injection enabled.
    faulty = BatchScheduler(Engine(), total_nodes=8, faults=LETHAL)
    with pytest.raises(ConfigurationError):
        faulty.submit(BatchJob("huge", n_nodes=9, runtime=10, estimate=10))


def test_inactive_spec_is_identical_to_no_spec():
    jobs_a = [BatchJob("a", 8, runtime=100, estimate=120),
              BatchJob("b", 8, runtime=50, estimate=60)]
    jobs_b = [BatchJob("a", 8, runtime=100, estimate=120),
              BatchJob("b", 8, runtime=50, estimate=60)]
    sched_a, done_a, span_a = _run(None, jobs_a, nodes=8)
    sched_b, done_b, span_b = _run(FaultSpec.none(), jobs_b, nodes=8)
    assert span_a == span_b
    assert [(j.start_time, j.end_time) for j in done_a] == \
        [(j.start_time, j.end_time) for j in done_b]
    assert sched_b.injector is None


def test_job_exhausts_retries_and_fails():
    job = BatchJob("doomed", 64, runtime=4 * 3600.0, estimate=5 * 3600.0)
    sched, (j,), _ = _run(LETHAL, [job])
    assert j.state is JobState.FAILED
    assert j.attempts == LETHAL.max_retries + 1
    assert j in sched.failed and j not in sched.finished
    assert len(j.fault_log) == j.attempts
    assert sched.success_rate() == 0.0


def test_backoff_delays_restart():
    """Each restart waits base * factor**(attempt-1) before re-queueing."""
    policy = RetryPolicy.from_spec(LETHAL)
    assert policy.delay(1) == 10.0
    assert policy.delay(2) == 20.0
    assert policy.delay(3) == 40.0
    with pytest.raises(ConfigurationError):
        policy.delay(0)
    job = BatchJob("doomed", 64, runtime=4 * 3600.0, estimate=5 * 3600.0)
    _, (j,), makespan = _run(LETHAL, [job])
    # Makespan covers every attempt plus both backoff waits.
    first_fatal = j.fault_log[0][0]
    assert makespan > first_fatal + policy.delay(1) + policy.delay(2)


def test_surviving_job_completes_normally():
    job = BatchJob("lucky", 4, runtime=100.0, estimate=120.0)
    sched, (j,), _ = _run(MILD, [job])
    assert j.state is JobState.DONE
    assert j.attempts == 0 and j.lost_time == 0.0
    assert sched.success_rate() == 1.0


def test_checkpointing_bounds_lost_work():
    """With checkpoints every 600 payload seconds, a failure loses at
    most 600s + the current segment; without, it loses everything."""
    base = LETHAL.with_(max_retries=6)
    no_ckpt = base
    with_ckpt = base.with_(checkpoint_interval=600.0, checkpoint_cost=5.0)
    job_a = BatchJob("a", 64, runtime=2 * 3600.0, estimate=3 * 3600.0)
    job_b = BatchJob("a", 64, runtime=2 * 3600.0, estimate=3 * 3600.0)
    _, (ja,), _ = _run(no_ckpt, [job_a])
    _, (jb,), _ = _run(with_ckpt, [job_b])
    # Same fault streams (same spec seed, same job name/attempt names up
    # to checkpoint-induced window changes): the checkpointed run
    # preserves progress across restarts, the bare run cannot.
    assert ja.progress_done == 0.0 or ja.state is JobState.DONE
    if jb.attempts > 0 and jb.state is JobState.DONE:
        assert jb.checkpoint_time > 0.0
    policy = CheckpointPolicy.from_spec(with_ckpt)
    assert policy.restart_point(1234.0) == 1200.0
    assert policy.lost_work(1234.0) == pytest.approx(34.0)
    assert policy.overhead(1800.0) == pytest.approx(15.0)


def test_failed_job_frees_nodes_for_queue():
    """A FAILED job must release its nodes so queued work proceeds."""
    spec = LETHAL.with_(max_retries=0)  # fail on first fault
    big = BatchJob("big", 64, runtime=4 * 3600.0, estimate=5 * 3600.0)
    small = BatchJob("small", 64, runtime=60.0, estimate=90.0)
    sched, (j_big, j_small), _ = _run(spec, [big, small])
    assert j_big.state is JobState.FAILED
    assert j_small.state in (JobState.DONE, JobState.FAILED)
    assert j_small.start_time is not None


def test_deterministic_replay():
    def once():
        jobs = [BatchJob("a", 32, runtime=3600.0, estimate=4000.0),
                BatchJob("b", 32, runtime=7200.0, estimate=8000.0,
                         os_choice=OsChoice.MCKERNEL)]
        sched, submitted, makespan = _run(
            LETHAL.with_(max_retries=4), jobs)
        return (makespan, [(j.state.value, j.attempts, j.end_time)
                           for j in submitted], sched.fault_report())

    assert once() == once()


def test_fault_report_and_effective_utilization():
    jobs = [BatchJob("a", 64, runtime=4 * 3600.0, estimate=5 * 3600.0)]
    sched, _, makespan = _run(LETHAL, jobs)
    report = sched.fault_report()
    assert report["jobs_failed"] == 1
    assert report["retries"] == LETHAL.max_retries + 1
    assert sum(report["faults_by_kind"].values()) == report["retries"]
    assert report["lost_payload_seconds"] >= 0.0
    # Nothing completed: goodput is zero even though nodes were busy.
    assert sched.effective_utilization(makespan) == 0.0
    with pytest.raises(ConfigurationError):
        sched.effective_utilization(0.0)


def test_mckernel_restart_repays_prologue():
    """Every McKernel attempt pays the LWK boot prologue again."""
    spec = FaultSpec(node_mtbf_hours=2.0, max_retries=8,
                     backoff_base=1.0, seed=3)
    job = BatchJob("mck", 32, runtime=3600.0, estimate=4000.0,
                   os_choice=OsChoice.MCKERNEL)
    _, (j,), makespan = _run(spec, [job])
    if j.state is JobState.DONE and j.attempts > 0:
        assert j.end_time - j.start_time > j.wall_occupancy
