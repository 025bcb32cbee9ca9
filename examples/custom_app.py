#!/usr/bin/env python3
"""Bring your own application: profiling a new workload.

The six paper applications are declarative
:class:`~repro.apps.base.WorkloadProfile` objects — nothing in the
engine knows their names.  This example adds a *new* code the way a
downstream user would: a graph-analytics-flavoured workload (irregular
access, frequent tiny collectives, allocation churn from frontier
queues — the §1 "more diverse workloads" the POSIX gap matters for) and
answers the questions the paper teaches you to ask about it:

1. Which kernel wins, at which scale, on which machine?
2. Where does the Linux time go (breakdown)?
3. How noise-sensitive is it (Eq. 1 against its sync interval)?

Run:  python examples/custom_app.py
"""

from repro.apps import RankGeometry, WorkloadProfile
from repro.apps.base import InitPhase
from repro.hardware import fugaku, oakforest_pacs
from repro.kernel import LinuxKernel, fugaku_production, ofp_default
from repro.mckernel import boot_mckernel
from repro.noise import NoiseGroup, eq1_delay
from repro.runtime import AppRunner, Comparison
from repro.units import mib, us


def graph_analytics_profile() -> WorkloadProfile:
    """A BFS-flavoured bulk-synchronous graph workload."""
    return WorkloadProfile(
        name="GraphBFS",
        description="level-synchronous BFS: tiny sync intervals, "
                    "frontier churn, poor locality",
        scaling="weak",
        reference_nodes=16,
        sync_interval=2e-3,        # one BFS level ~2 ms
        iterations=2000,
        collective="allreduce",    # frontier-size vote per level
        msg_bytes=4 * 1024,
        churn_bytes=mib(3),        # frontier queues realloc per level
        working_set=mib(400),
        refs_per_second=4.0e7,     # irregular: many off-chip refs
        locality=0.9,              # poor reuse
        init=InitPhase(compute=2.0, io_syscalls=500,
                       reg_count=32, reg_bytes_each=mib(8)),
        geometry={"x86_64": RankGeometry(16, 16)},
        variability=0.015,
    )


def compare(machine, tuning, profile, node_counts):
    """Linux vs McKernel at each node count, on the same seed stream
    (the paper ran each pair on the exact same compute nodes)."""
    linux = LinuxKernel(machine.node, tuning,
                        interconnect=machine.interconnect)
    mck = boot_mckernel(machine.node, host_tuning=tuning)
    runner = AppRunner(machine, profile, seed=0)
    return [Comparison(n, runner.run(linux, n), runner.run(mck, n))
            for n in node_counts]


def main() -> None:
    profile = graph_analytics_profile()

    print("1. Which kernel wins, where?")
    for machine, tuning, counts in (
        (oakforest_pacs(), ofp_default(), [64, 1024, 8192]),
        (fugaku(), fugaku_production(), [64, 1024, 8192]),
    ):
        comps = compare(machine, tuning, profile, counts)
        row = "   ".join(
            f"{c.n_nodes}: {c.speedup_percent:+5.1f}%" for c in comps)
        print(f"   {machine.name:<15} {row}")

    print("\n2. Where does the Linux time go? (OFP, 8,192 nodes)")
    comp = compare(oakforest_pacs(), ofp_default(), profile, [8192])[0]
    b = comp.linux.breakdown
    total = b.total
    for name in ("compute", "tlb", "churn", "collective", "noise", "init"):
        v = getattr(b, name)
        bar = "#" * int(40 * v / total)
        print(f"   {name:<11} {v:7.2f}s  {bar}")

    print("\n3. How noise-sensitive is a 2 ms sync interval?")
    n = 8192 * 256
    for L, I in ((us(50), 10.0), (us(266), 38.0), (17.4e-3, 150.0)):
        d = eq1_delay([NoiseGroup(length=L, interval=I)],
                      profile.sync_interval, n)
        print(f"   noise L={L * 1e6:8.1f} us every {I:5.0f}s "
              f"-> Eq.1 delay {d * 100:6.2f}%")
    print("\nShort sync intervals are exactly where the paper's noise")
    print("story bites hardest — a BFS level can lose more to one daemon")
    print("wakeup than to its own computation.")


if __name__ == "__main__":
    main()
