"""Batch scheduling: FIFO, EASY backfill, McKernel prologue cost."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.batchsched import (
    MCKERNEL_EPILOGUE,
    MCKERNEL_PROLOGUE,
    BatchJob,
    BatchScheduler,
    JobState,
    OsChoice,
)
from repro.sim.engine import Engine


def _sched(nodes=16):
    eng = Engine()
    return eng, BatchScheduler(eng, total_nodes=nodes)


def test_immediate_start_when_nodes_free():
    eng, sched = _sched()
    job = sched.submit(BatchJob("a", n_nodes=8, runtime=100, estimate=120))
    eng.run()
    assert job.state is JobState.DONE
    assert job.start_time == 0.0
    assert job.end_time == pytest.approx(100.0)
    assert job.wait_time == 0.0


def test_fifo_ordering():
    eng, sched = _sched(nodes=16)
    a = sched.submit(BatchJob("a", 16, runtime=50, estimate=60))
    b = sched.submit(BatchJob("b", 16, runtime=50, estimate=60))
    eng.run()
    assert a.end_time == pytest.approx(50.0)
    assert b.start_time == pytest.approx(50.0)
    assert b.wait_time == pytest.approx(50.0)


def test_easy_backfill_fills_idle_nodes():
    eng, sched = _sched(nodes=16)
    # 'wide' blocks the head of the queue behind 'long'.
    sched.submit(BatchJob("long", 8, runtime=100, estimate=100))
    wide = sched.submit(BatchJob("wide", 16, runtime=10, estimate=10))
    # 'small' fits in the 8 idle nodes AND finishes before 'long' does,
    # so EASY lets it jump the queue without delaying 'wide'.
    small = sched.submit(BatchJob("small", 4, runtime=20, estimate=25))
    eng.run()
    assert small.start_time == 0.0  # backfilled immediately
    assert wide.start_time == pytest.approx(100.0)  # not delayed


def test_backfill_never_delays_head():
    eng, sched = _sched(nodes=16)
    sched.submit(BatchJob("long", 8, runtime=100, estimate=100))
    wide = sched.submit(BatchJob("wide", 16, runtime=10, estimate=10))
    # This one would overrun the head's reservation (est 300 > 100) and
    # needs the head's nodes: must NOT backfill.
    greedy = sched.submit(BatchJob("greedy", 10, runtime=300, estimate=300))
    eng.run()
    assert wide.start_time == pytest.approx(100.0)
    assert greedy.start_time >= wide.end_time


def test_spare_node_backfill_may_overrun_shadow():
    eng, sched = _sched(nodes=16)
    sched.submit(BatchJob("long", 8, runtime=100, estimate=100))
    sched.submit(BatchJob("wide", 12, runtime=10, estimate=10))
    # 4 nodes remain spare even once 'wide' gets its reservation
    # (16 - 12 = 4): a 4-node job may run arbitrarily long.
    spare = sched.submit(BatchJob("spare", 4, runtime=500, estimate=500))
    eng.run()
    assert spare.start_time == 0.0


def test_mckernel_prologue_charged():
    eng, sched = _sched()
    lin = sched.submit(BatchJob("lin", 4, runtime=100, estimate=100))
    mck = sched.submit(BatchJob("mck", 4, runtime=100, estimate=100,
                                os_choice=OsChoice.MCKERNEL))
    eng.run()
    assert lin.end_time == pytest.approx(100.0)
    assert mck.end_time == pytest.approx(
        100.0 + MCKERNEL_PROLOGUE + MCKERNEL_EPILOGUE)


def test_utilization_and_mean_wait():
    eng, sched = _sched(nodes=10)
    sched.submit(BatchJob("a", 10, runtime=50, estimate=50))
    sched.submit(BatchJob("b", 10, runtime=50, estimate=50))
    eng.run()
    assert sched.utilization(100.0) == pytest.approx(1.0)
    assert sched.mean_wait() == pytest.approx(25.0)
    with pytest.raises(ConfigurationError):
        sched.utilization(0.0)


def test_oversized_job_rejected():
    _, sched = _sched(nodes=4)
    with pytest.raises(ConfigurationError):
        sched.submit(BatchJob("huge", 8, runtime=1, estimate=1))
    with pytest.raises(ConfigurationError):
        BatchJob("bad", 0, runtime=1, estimate=1)
    with pytest.raises(ConfigurationError):
        BatchJob("bad", 1, runtime=0, estimate=1)


def test_wait_time_before_start_raises():
    _, sched = _sched()
    job = BatchJob("a", 4, runtime=10, estimate=10)
    with pytest.raises(ConfigurationError):
        _ = job.wait_time
