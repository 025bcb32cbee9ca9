"""Remaining branch coverage across small corners of the stack."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.distributions import Pareto, TruncatedExponential
from repro.sim.engine import Engine


def test_pareto_alpha_one_mean_branch(rng):
    d = Pareto(lo=1e-5, hi=1e-2, alpha=1.0)
    xs = d.sample(rng, 300_000)
    assert xs.mean() == pytest.approx(d.mean, rel=0.05)


def test_interrupt_after_completion_is_noop():
    eng = Engine()

    def quick():
        yield eng.timeout(1.0)
        return "done"

    proc = eng.process(quick())
    eng.run()
    assert proc.done.value == "done"
    proc.interrupt()  # already finished: no effect, no error
    assert proc.done.value == "done"


def test_schedule_in_past_rejected():
    eng = Engine()

    def proc():
        yield eng.timeout(5.0)

    eng.process(proc())
    eng.run()
    with pytest.raises(SimulationError, match="past"):
        eng._schedule(1.0, None, None)


def test_truncexp_quantile_saturates_at_cap():
    d = TruncatedExponential(scale=1e-3, cap=2e-3)
    assert float(d.quantile(0.9999999)) == pytest.approx(2e-3)


def test_buddy_repr_and_block_props():
    from repro.kernel.buddy import BuddyAllocator

    b = BuddyAllocator(64)
    blk = b.alloc(3)
    assert blk.n_pages == 8
    assert "free=56" in repr(b)


def test_vma_end_and_fault_stats_reset():
    from repro.kernel.buddy import BuddyAllocator
    from repro.kernel.pagetable import AARCH64_64K, AddressSpace, PageKind

    space = AddressSpace(AARCH64_64K, BuddyAllocator(256))
    vma = space.mmap(128 * 1024, page_kind=PageKind.BASE, prefault=True)
    assert vma.end == vma.start + vma.length
    assert space.stats.zeroed_bytes > 0
    space.stats.reset()
    assert space.stats.zeroed_bytes == 0
    assert space.stats.cow_faults == 0


def test_sched_task_and_cgroup_reprs():
    from repro.kernel.cgroup import Cgroup

    cg = Cgroup("app", cpus=range(8), mems=[0])
    cg.attach(1)
    assert "app" in repr(cg) and "tasks=1" in repr(cg)


def test_topology_repr():
    from repro.hardware.topology import CpuTopology

    topo = CpuTopology(physical_cores=50, smt=1, cores_per_group=12,
                       assistant_cores=2)
    text = repr(topo)
    assert "cores=50" in text and "assistant=2" in text


def test_fwq_result_cdf_small_sample(rng):
    from repro.apps.fwq import FwqConfig, run_fwq

    result = run_fwq([], FwqConfig(duration=1.0), rng)
    lengths, probs = result.cdf(n_points=10)
    assert len(lengths) == 10 and probs[-1] == pytest.approx(1.0)


def test_mixture_sources_with_zero_length_tail():
    from repro.noise.analytic import IterationMixture
    from repro.noise.source import NoiseSource
    from repro.sim.distributions import Fixed

    m = IterationMixture(
        [NoiseSource("z", interval=1.0, duration=Fixed(0.0))],
        t_work=1e-3,
    )
    # A zero-length noise never lengthens an iteration.
    assert float(m.survival(1e-3)) == 0.0
    assert m.expected_max(1e9) == pytest.approx(1e-3)


def test_collective_barrier_on_two_nodes():
    from repro.net.collectives import CollectiveModel
    from repro.net.fabric import TOFU_D

    tiny = CollectiveModel(TOFU_D, n_nodes=1, ranks_per_node=2)
    assert tiny.barrier() > 0.0  # even a 2-rank barrier costs a hop
