"""End-to-end scenarios crossing every layer of the stack."""

import numpy as np
import pytest

from repro.apps import ALL_PROFILES
from repro.apps.fwq import FwqConfig, run_fwq_on
from repro.hardware.machines import a64fx_testbed, fugaku
from repro.kernel.tuning import fugaku_production
from repro.platform.compose import compose_os
from repro.runtime.batchsched import BatchJob, BatchScheduler, OsChoice
from repro.runtime.runner import AppRunner
from repro.sim.engine import Engine
from repro.units import mib


def test_operational_day_on_the_testbed():
    """A day in the life of the 16-node A64FX testbed: a mixed queue of
    Linux and McKernel jobs flows through the batch system; each job's
    OS boots correctly and produces plausible FWQ or
    application numbers."""
    machine = a64fx_testbed()
    engine = Engine()
    sched = BatchScheduler(engine, total_nodes=machine.n_nodes)

    jobs = [
        BatchJob("fwq-linux", 8, runtime=360, estimate=400),
        BatchJob("fwq-mck", 8, runtime=360, estimate=400,
                 os_choice=OsChoice.MCKERNEL),
        BatchJob("lqcd", 16, runtime=900, estimate=1000,
                 os_choice=OsChoice.MCKERNEL),
        BatchJob("debug", 1, runtime=60, estimate=100),
    ]
    for j in jobs:
        sched.submit(j)
    engine.run()
    assert all(j.end_time is not None for j in jobs)
    # The two 8-node jobs co-ran (filling the machine); the 16-node job
    # had to wait for both.
    assert jobs[0].start_time == jobs[1].start_time == 0.0
    assert jobs[2].start_time >= max(jobs[0].end_time, jobs[1].end_time)
    # The debug job backfilled the moment nodes freed, jumping the
    # blocked 16-node head without delaying it.
    assert jobs[3].start_time == min(jobs[0].end_time, jobs[1].end_time)
    assert jobs[3].start_time < jobs[2].start_time

    # Provision the OSes the jobs requested and sanity-check them.
    rng = np.random.default_rng(0)
    tuning = fugaku_production()
    for j in (jobs[0], jobs[1]):
        os_instance = compose_os(machine, j.os_choice.value, tuning)
        fwq = run_fwq_on(os_instance, FwqConfig(duration=30.0), rng)
        assert fwq.noise_rate < 1e-4
    # The McKernel FWQ is at least as clean as Linux's.
    lin = compose_os(machine, OsChoice.LINUX.value, tuning)
    mck = compose_os(machine, OsChoice.MCKERNEL.value, tuning)
    lin_fwq = run_fwq_on(lin, FwqConfig(duration=60.0),
                         np.random.default_rng(1))
    mck_fwq = run_fwq_on(mck, FwqConfig(duration=60.0),
                         np.random.default_rng(1))
    assert mck_fwq.noise_rate <= lin_fwq.noise_rate


def test_lwk_process_full_lifecycle(fugaku_mckernel):
    """One McKernel process exercising every §5 facility in order:
    memory, delegation, fork, exit."""
    p = fugaku_mckernel.spawn(memory_scale=0.002)
    # 1. LWK-local memory management.
    vma = p.syscall("mmap", mib(8))
    p.address_space.touch(vma, mib(8))
    # 2. Delegated I/O through the proxy.
    fd = p.syscall("open", "/data/config")
    p.syscall("write", fd, 4096)
    p.syscall("close", fd)
    # 3. fork + COW.
    child = p.syscall("fork")
    child.address_space.cow_write(child.address_space.vmas[vma.start])
    assert child.address_space.stats.cow_faults == 4  # 8 MiB / 2 MiB
    # 4. Teardown, child first.
    child.exit()
    invalidated = p.exit()
    assert invalidated >= 128  # 8 MiB of 64 KiB PTEs
    assert not p.proxy.alive


def test_kernel_state_consistency_across_views(fugaku_machine):
    """The noise catalogue and the runner must agree about one kernel's
    configuration."""
    from repro.kernel.linux import LinuxKernel
    from repro.kernel.tuning import Countermeasure, fugaku_production
    from repro.noise.catalog import noise_sources_for

    tuning = fugaku_production().disable(Countermeasure.KWORKER_BINDING)
    kernel = LinuxKernel(fugaku_machine.node, tuning)
    # catalogue view:
    names = {s.name for s in noise_sources_for(kernel,
                                               include_stragglers=False)}
    assert names == {"kworker", "sar"}
    # runner view: the de-tuned kernel is slower for a noise-sensitive app.
    profile = ALL_PROFILES["LQCD"]()
    runner = AppRunner(fugaku_machine, profile, seed=0)
    base = AppRunner(
        fugaku_machine, profile, seed=0
    ).run(LinuxKernel(fugaku_machine.node, fugaku_production()), 2048,
          n_runs=1)
    detuned = runner.run(kernel, 2048, n_runs=1)
    assert detuned.breakdown.noise > base.breakdown.noise
