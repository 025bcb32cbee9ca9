"""One-command traced runs: ``repro trace run <experiment>``.

:func:`trace_experiment` wraps any registered experiment in an ambient
:func:`~repro.obs.tracer.tracing` scope plus a fresh
:class:`~repro.obs.metrics.MetricsRegistry`, so every instrumentation
hook along the way — scheduler ticks, IKC deliveries, proxy crashes,
batch-job attempts, fault injections, sweep cells — lands in one
buffer, ready for the :mod:`repro.obs.export` writers.

Not every experiment exercises every layer (``table1`` never boots a
DES, ``eq1`` never sweeps), so by default the traced run is prefixed
with :func:`capture_node_slice`: a small, fully deterministic slice of
simulated node life — an ftrace capture on an untuned Linux kernel, an
LWK process issuing local and delegated syscalls through its proxy
(including a crash/respawn cycle), an unreliable IKC channel under a
DES engine, a fault-injected batch scheduler, and a one-cell perf
sweep.  That guarantees the exported trace carries events from all
eight layers regardless of which experiment rides behind it, which is
what the CI smoke step asserts.

Determinism: everything here is seeded; the trace bytes depend only on
``(experiment_id, fast, seed, node_slice)`` — never on ``--jobs``,
wall time, or process scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metrics import MetricsRegistry
from .tracer import Tracer, tracing

#: Default ring size for traced runs: big enough that a fast-mode
#: experiment plus the node slice never wraps.
DEFAULT_BUFFER = 1_000_000


def capture_node_slice(seed: int = 0) -> None:
    """Emit a deterministic cross-layer slice of simulated node life
    into the ambient tracer (a no-op when tracing is disabled).

    The slice touches every instrumented layer exactly the way the
    live components do — by running them, not by faking events — so a
    trace viewer shows one representative of each mechanism the paper
    discusses: kernel noise actors (§4.2.1), syscall delegation over
    IKC (§5), the proxy's crash fragility (§6), batch-scheduler retry
    loops and fault injection, and a perf-executor sweep cell.
    """
    from ..apps import lqcd
    from ..errors import ProxyCrashed
    from ..faults.injector import FaultInjector
    from ..faults.spec import FaultSpec
    from ..hardware import a64fx_testbed
    from ..kernel.ftrace import Ftrace, TraceEvent
    from ..kernel.linux import LinuxKernel
    from ..kernel.tuning import fugaku_production, untuned
    from ..mckernel.ikc import IkcChannel, IkcSpec
    from ..mckernel.lwk import boot_mckernel
    from ..runtime.batchsched import BatchJob, BatchScheduler, OsChoice
    from ..runtime.runner import compare
    from ..sim.engine import Engine
    from .tracer import get_tracer

    tracer = get_tracer()
    if tracer is None:
        return
    machine = a64fx_testbed()
    node = machine.node

    # -- hw: the platform under the microscope -------------------------
    tracer.event("hw", "node", ts=0.0, actor=machine.name,
                 arch=node.arch, cores=node.topology.physical_cores,
                 interconnect=machine.interconnect)

    # -- kernel: ftrace interference capture on an untuned host --------
    # (the §4.2.1 workflow; Ftrace.record re-emits into the tracer)
    linux = LinuxKernel(node, untuned())
    ft = Ftrace()
    ft.start()
    rng = np.random.default_rng(seed)
    app_cpu = linux.app_cpu_ids()[0]
    for task in linux.noise_tasks_on_app_cores():
        n_events = min(32, int(rng.poisson(10.0 / task.interval)))
        for ts in np.sort(rng.uniform(0.0, 10.0, n_events)):
            ft.record(TraceEvent(
                timestamp=float(ts), cpu_id=app_cpu, actor=task.name,
                event="sched_switch",
                duration=task.duration.sample_one(rng)))
    ft.stop()

    # -- lwk + proxy: delegation, then the §6 crash/respawn cycle ------
    mck = boot_mckernel(node, host_tuning=fugaku_production())
    proc = mck.spawn()
    proc.syscall("getpid")
    vma = proc.syscall("mmap", 1 << 20)
    fd = proc.syscall("open", "/scratch/input.dat", "r")
    proc.syscall("write", fd, 4096)
    proc.syscall("read", fd, 1024)
    proc.proxy.crash()
    try:
        proc.syscall("open", "/scratch/output.dat", "w")
    except ProxyCrashed:
        proc.proxy.respawn()
    fd = proc.syscall("open", "/scratch/output.dat", "w")
    proc.syscall("close", fd)
    proc.syscall("munmap", vma)
    proc.exit()

    # -- ikc: an unreliable channel under the DES ----------------------
    engine = Engine()
    injector = FaultInjector(FaultSpec(ikc_drop_prob=0.3, seed=seed))
    chan = IkcChannel(IkcSpec(drop_prob=0.3), name="lwk->linux",
                      drop_rng=injector.ikc_channel_rng("node-slice"))
    for payload in range(6):
        chan.post_async(engine, payload)
    engine.run()

    # -- sched + faults: a fault-injected batch trace ------------------
    engine = Engine()
    faults = FaultSpec(node_mtbf_hours=2.0, oom_per_node_hour=0.3,
                       proxy_crash_per_node_hour=0.3,
                       daemon_stall_per_node_hour=0.2,
                       max_retries=2, backoff_base=10.0, seed=seed)
    sched = BatchScheduler(engine, total_nodes=16, faults=faults)
    sched.submit(BatchJob("lin-a", n_nodes=8, runtime=3600.0,
                          estimate=4000.0, os_choice=OsChoice.LINUX))
    sched.submit(BatchJob("mck-b", n_nodes=8, runtime=3600.0,
                          estimate=4000.0, os_choice=OsChoice.MCKERNEL))
    sched.submit(BatchJob("lin-c", n_nodes=16, runtime=1800.0,
                          estimate=2000.0, os_choice=OsChoice.LINUX))
    engine.run()

    # -- perf: one Linux/McKernel sweep cell pair ----------------------
    compare(machine, lqcd.profile(),
            LinuxKernel(node, fugaku_production()),
            boot_mckernel(node, host_tuning=fugaku_production()),
            node_counts=[1], n_runs=1, seed=seed)


@dataclass
class TracedRun:
    """One experiment's result together with its trace and metrics."""

    experiment_id: str
    seed: int
    fast: bool
    result: object                   # the ExperimentResult
    tracer: Tracer
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def metadata(self) -> dict:
        """Deterministic trace metadata — intentionally excludes
        ``jobs`` (and anything else that must not change the bytes)."""
        return {"experiment": self.experiment_id, "seed": self.seed,
                "fast": self.fast}

    def chrome_json(self) -> str:
        from .export import chrome_trace_json

        return chrome_trace_json(self.tracer, metadata=self.metadata())

    def write(self, path: str) -> str:
        from .export import write_chrome_trace

        return write_chrome_trace(self.tracer, path,
                                  metadata=self.metadata())

    def write_jsonl(self, path: str) -> str:
        from .export import write_jsonl

        return write_jsonl(self.tracer, path)

    def attribution(self):
        from .attribution import NoiseAttribution

        return NoiseAttribution.from_tracer(self.tracer)


def trace_experiment(
    experiment_id: str,
    fast: bool = True,
    seed: int = 0,
    jobs: int = 1,
    node_slice: bool = True,
    buffer_size: int = DEFAULT_BUFFER,
    tracer: Optional[Tracer] = None,
) -> TracedRun:
    """Run one registered experiment with tracing on.

    The run executes under a fresh :class:`MetricsRegistry` and with
    the run cache disabled, so a traced run can never pollute cache
    keys or global counters; ``jobs`` still fans sweeps out, and the
    resulting trace is byte-identical for any ``jobs`` value.
    """
    from ..experiments.registry import run_experiment
    from ..perf.context import perf_context

    metrics = MetricsRegistry()
    if tracer is None:
        tracer = Tracer(buffer_size=buffer_size)
    with tracing(tracer):
        with perf_context(jobs=jobs, cache=None, counters=metrics):
            if node_slice:
                capture_node_slice(seed)
            result = run_experiment(experiment_id, fast=fast, seed=seed)
    return TracedRun(experiment_id=experiment_id, seed=seed, fast=fast,
                     result=result, tracer=tracer, metrics=metrics)
