"""Hypothesis properties of the batch scheduler.

Invariants for any random job mix:

* every job eventually runs and finishes;
* node capacity is never exceeded at any start instant;
* FIFO heads are never delayed by a backfilled job (EASY's contract);
* accounting (utilisation <= 1, waits >= 0) holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.batchsched import (
    BatchJob,
    BatchScheduler,
    JobState,
    OsChoice,
)
from repro.sim.engine import Engine

TOTAL_NODES = 16

job_strategy = st.tuples(
    st.integers(1, TOTAL_NODES),          # nodes
    st.integers(1, 500),                  # runtime (s)
    st.integers(0, 200),                  # extra estimate slack
    st.booleans(),                        # mckernel?
)


def _build(jobs_spec):
    eng = Engine()
    sched = BatchScheduler(eng, total_nodes=TOTAL_NODES)
    jobs = []
    for i, (nodes, runtime, slack, mck) in enumerate(jobs_spec):
        jobs.append(sched.submit(BatchJob(
            name=f"j{i}", n_nodes=nodes, runtime=float(runtime),
            estimate=float(runtime + slack),
            os_choice=OsChoice.MCKERNEL if mck else OsChoice.LINUX,
        )))
    eng.run()
    return eng, sched, jobs


@settings(max_examples=40, deadline=None)
@given(jobs_spec=st.lists(job_strategy, min_size=1, max_size=12))
def test_every_job_completes(jobs_spec):
    _, _, jobs = _build(jobs_spec)
    assert all(j.state is JobState.DONE for j in jobs)
    for j in jobs:
        assert j.end_time == j.start_time + j.wall_occupancy
        assert j.wait_time >= 0.0


@settings(max_examples=40, deadline=None)
@given(jobs_spec=st.lists(job_strategy, min_size=1, max_size=12))
def test_capacity_never_exceeded(jobs_spec):
    _, _, jobs = _build(jobs_spec)
    # Check occupancy at every job-start instant.
    for probe in jobs:
        t = probe.start_time
        in_use = sum(
            j.n_nodes for j in jobs
            if j.start_time <= t < j.end_time
        )
        assert in_use <= TOTAL_NODES


@settings(max_examples=40, deadline=None)
@given(jobs_spec=st.lists(job_strategy, min_size=2, max_size=12))
def test_fifo_heads_start_in_submission_order_when_same_width(jobs_spec):
    # Jobs of the full machine width cannot backfill past each other, so
    # they must run strictly in submission order.
    wide_spec = [(TOTAL_NODES, r, s, m) for (_, r, s, m) in jobs_spec]
    _, _, jobs = _build(wide_spec)
    starts = [j.start_time for j in jobs]
    assert starts == sorted(starts)


@settings(max_examples=40, deadline=None)
@given(jobs_spec=st.lists(job_strategy, min_size=1, max_size=12))
def test_utilisation_bounded(jobs_spec):
    eng, sched, jobs = _build(jobs_spec)
    horizon = max(j.end_time for j in jobs)
    assert 0.0 < sched.utilization(horizon) <= 1.0 + 1e-9
    assert sched.mean_wait() >= 0.0
