"""FAULTS — extension experiment: job survival at pre-exascale node
counts, Linux vs McKernel.

Not a paper artefact — the reliability companion to the ``exascale``
projection.  §6 recounts what actually broke in production: node
health daemons OOM-killing proxy processes, wedged IKC doorbells,
plain node failures whose frequency grows with job size.  This
experiment drives the batch scheduler (:mod:`repro.runtime.batchsched`)
through a fixed synthetic job mix under one seeded
:class:`~repro.faults.FaultSpec` while scaling the machine, and
reports **job success rate** and **effective utilization** (goodput:
only completed jobs' payload node-seconds count; prologues,
checkpoint writes, daemon stalls and aborted attempts count zero).

The fault exposure is OS-asymmetric, mirroring the paper's
architecture: daemon stalls hit Linux jobs only (the LWK runs no
daemons), proxy crashes hit McKernel jobs only, node failures and OOM
kills hit both, and McKernel pays its per-job boot prologue on every
restart.  Everything is driven by the in-process DES, so the result is
bit-identical for any ``--jobs`` value and across repeated runs.
"""

from __future__ import annotations

from ..faults import FaultSpec
from ..runtime.batchsched import BatchJob, BatchScheduler, OsChoice
from ..sim.engine import Engine
from .report import ExperimentResult, format_table

#: The per-node fault environment, scale-invariant by construction:
#: rates are per node-hour, so doubling the machine doubles the draw.
BASE_FAULTS = FaultSpec(
    node_mtbf_hours=8000.0,          # ~1 failure / node-year
    oom_per_node_hour=4e-6,
    proxy_crash_per_node_hour=2e-5,  # McKernel jobs only
    daemon_stall_per_node_hour=5e-4,  # Linux jobs only
    daemon_stall_seconds=30.0,
    max_retries=3,
    backoff_base=60.0,
    checkpoint_interval=1800.0,
    checkpoint_cost=60.0,
)


def _workload(n_nodes: int) -> list[BatchJob]:
    """A deterministic mixed queue filling the machine several times
    over: capability jobs (half machine), mid-size, and small fillers."""
    jobs = []
    for i in range(3):
        jobs.append(BatchJob(
            f"cap{i}", n_nodes // 2, runtime=7200.0, estimate=8000.0))
    for i in range(6):
        jobs.append(BatchJob(
            f"mid{i}", n_nodes // 4, runtime=3600.0 * (1 + i % 2),
            estimate=3600.0 * (1 + i % 2) + 600.0))
    for i in range(4):
        jobs.append(BatchJob(
            f"small{i}", max(1, n_nodes // 16), runtime=1800.0,
            estimate=2400.0))
    return jobs


def _run_os(os_choice: OsChoice, n_nodes: int, faults: FaultSpec) -> dict:
    engine = Engine()
    sched = BatchScheduler(engine, total_nodes=n_nodes, faults=faults)
    for job in _workload(n_nodes):
        job.os_choice = os_choice
        sched.submit(job)
    makespan = engine.run()
    report = sched.fault_report()
    report["effective_utilization"] = sched.effective_utilization(makespan)
    report["makespan_hours"] = makespan / 3600.0
    return report


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    node_counts = [512, 2048] if fast else [512, 2048, 8192, 32768]
    faults = BASE_FAULTS.with_(seed=seed)

    data: dict = {"fault_spec": faults.to_dict(), "node_counts": node_counts,
                  "by_os": {}}
    rows = []
    for os_choice in (OsChoice.LINUX, OsChoice.MCKERNEL):
        per_scale = []
        for n in node_counts:
            report = _run_os(os_choice, n, faults)
            per_scale.append(report)
            rows.append([
                os_choice.value, n,
                f"{report['success_rate'] * 100:.1f}%",
                f"{report['effective_utilization'] * 100:.1f}%",
                report["retries"],
                f"{report['lost_payload_seconds'] / 3600.0:.2f}",
            ])
        data["by_os"][os_choice.value] = per_scale

    text = format_table(
        ["OS", "Nodes", "Success", "Eff. util", "Retries", "Lost (h)"],
        rows,
        title="Extension: job survival under injected faults "
              f"(seeded spec, mtbf={faults.node_mtbf_hours:.0f} h/node; "
              "goodput counts completed payload only)",
    )
    return ExperimentResult(
        experiment_id="faults",
        title="Fault sensitivity at scale (Linux vs McKernel)",
        data=data,
        text=text,
        paper_reference={
            "claim": "§6: production failures (daemon OOM kills, proxy "
                     "process deaths) dominated McKernel's operational "
                     "cost; frequency grows with job size x walltime",
        },
    )
