#!/usr/bin/env python3
"""Noise audit: the §4.2 methodology, end to end.

Reproduces the workflow the Fugaku team used to tune Linux:

1. run FWQ on an *untuned* kernel and measure the damage;
2. use ftrace-style interference reports to identify the actors;
3. apply countermeasures one at a time (cgroup binding, kworker masks,
   the blk-mq cpumask patch, per-job PMU stop, the RHEL TLB patch) and
   watch the noise rate fall;
4. end with the production configuration and its residual (sar).

Run:  python examples/noise_audit.py
"""

from dataclasses import replace

import numpy as np

from repro.apps.fwq import FwqConfig, run_fwq_on
from repro.hardware import a64fx_testbed
from repro.kernel import (
    Ftrace,
    LinuxKernel,
    TraceEvent,
    fugaku_production,
    untuned,
)
from repro.kernel.tuning import LargePagePolicy
from repro.units import to_us


def trace_interference(kernel: LinuxKernel, seconds: float = 60.0) -> Ftrace:
    """Synthesize an ftrace capture from the kernel's visible noise
    tasks (what `trace-cmd record` would show on a real node)."""
    ft = Ftrace()
    ft.start()
    rng = np.random.default_rng(42)
    app_cpu = kernel.app_cpu_ids()[0]
    for task in kernel.noise_tasks_on_app_cores():
        n_events = rng.poisson(seconds / task.interval)
        for ts in np.sort(rng.uniform(0, seconds, n_events)):
            ft.record(TraceEvent(
                timestamp=float(ts), cpu_id=app_cpu, actor=task.name,
                event="sched_switch",
                duration=task.duration.sample_one(rng),
            ))
    ft.stop()
    return ft


def main() -> None:
    machine = a64fx_testbed()
    config = FwqConfig(duration=120.0)
    rng = np.random.default_rng(7)

    # Step 1: the untuned starting point.
    bare = LinuxKernel(machine.node, untuned())
    result = run_fwq_on(bare, config, rng)
    print("Step 1 — untuned Linux, FWQ(6.5 ms):")
    print(f"  max noise {to_us(result.max_noise_length):9.1f} us, "
          f"rate {result.noise_rate:.2e}\n")

    # Step 2: who is doing this?  (§4.2.1: "we utilize execution time
    # profiling and ftrace")
    ft = trace_interference(bare, seconds=600.0)
    print("Step 2 — ftrace interference report on an application core:")
    for s in ft.interference_report(bare.app_cpu_ids())[:6]:
        print(f"  {s.actor:<16} events {s.count:>6}  total "
              f"{s.total_time * 1e3:8.2f} ms  worst "
              f"{to_us(s.max_duration):8.1f} us")
    print()

    # Step 3: apply countermeasures cumulatively.
    steps = [
        ("bind daemons via cgroups", dict(cgroup_cpu_isolation=True)),
        ("nohz_full on app cores", dict(nohz_full=True)),
        ("route IRQs to assistant cores", dict(irq_to_assistant=True)),
        ("bind unbound kworkers", dict(bind_kworkers=True)),
        ("patch blk_mq_hw_ctx.cpumask", dict(bind_blkmq=True)),
        ("stop TCS PMU reads per job", dict(stop_pmu_reads=True)),
        ("RHEL TLB flush patch", dict(
            tlb_flush_mode=fugaku_production().tlb_flush_mode)),
        ("hugeTLBfs", dict(large_pages=LargePagePolicy.HUGETLBFS)),
    ]
    tuning = untuned()
    print("Step 3 — applying countermeasures cumulatively:")
    for label, change in steps:
        tuning = replace(tuning, name=f"+{label}", **change)
        kernel = LinuxKernel(machine.node, tuning)
        r = run_fwq_on(kernel, config, rng)
        print(f"  + {label:<34} max {to_us(r.max_noise_length):9.1f} us  "
              f"rate {r.noise_rate:.2e}")

    # Step 4: the production stack and its floor.
    prod = LinuxKernel(machine.node, fugaku_production())
    r = run_fwq_on(prod, config, rng)
    print("\nStep 4 — Fugaku production configuration:")
    print(f"  max noise {to_us(r.max_noise_length):9.1f} us, "
          f"rate {r.noise_rate:.2e}")
    print(f"  residual actors: "
          f"{[t.name for t in prod.noise_tasks_on_app_cores()]}"
          f"  (sar is operationally required, §6.3)")

    # Step 5: cross-check with FTQ spectral analysis — periodic actors
    # appear as spectral lines at their wake-up rates, no tracing needed.
    from repro.apps.fwq import run_ftq
    from repro.noise.catalog import noise_sources_for
    from repro.noise.spectral import find_periodic_noise

    print("\nStep 5 — FTQ spectral cross-check (production config):")
    sources = noise_sources_for(prod, include_stragglers=False)
    ftq = run_ftq(sources, rng, window=1e-3, duration=120.0)
    peaks = find_periodic_noise(ftq, threshold=30.0)
    if peaks:
        for p in peaks:
            print(f"  periodic line at {p.frequency_hz:7.2f} Hz "
                  f"(period {p.period_s:6.2f} s)")
    else:
        print("  no periodic lines above the floor — the surviving noise"
              " (sar's Poisson-ish wakeups) has no clean spectral"
              " signature, consistent with the ftrace attribution.")

    # Step 6: the node state an operator would spot-check.
    print("\nStep 6 — configuration spot checks on the tuned node:")
    app_cpus = prod.app_cpu_ids()
    checks = {
        "nohz_full": prod.tuning.nohz_full,
        "app cpuset": f"{len(app_cpus)} CPUs, {min(app_cpus)}-{max(app_cpus)}",
        "system cpuset": prod.system_cpu_ids(),
        "large pages": prod.tuning.large_pages.value,
        "app-core interference": [t.name for t in
                                  prod.noise_tasks_on_app_cores()],
    }
    for label, value in checks.items():
        print(f"  {label:<24} {value}")

if __name__ == "__main__":
    main()
