"""Integration: the paper's headline claims, end-to-end.

Every test here exercises multiple subsystems together and asserts a
*shape* the paper reports — who wins, by roughly what factor, and how
the gap moves with scale or tuning.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import quick_compare
from repro.apps import ALL_PROFILES
from repro.apps.fwq import FwqConfig, run_fwq_on
from repro.experiments import run_experiment
from repro.hardware.machines import a64fx_testbed, fugaku
from repro.hardware.tlb import TlbFlushMode, TlbModel
from repro.kernel.buddy import BuddyAllocator
from repro.kernel.linux import LinuxKernel
from repro.kernel.pagetable import AARCH64_64K, PageKind
from repro.kernel.tuning import (
    Countermeasure,
    LargePagePolicy,
    fugaku_production,
    ofp_default,
    untuned,
)
from repro.mckernel.lwk import boot_mckernel
from repro.net.rdma import registration_time
from repro.noise.mitigation import TABLE2_PAPER
from repro.runtime.runner import compare
from repro.units import mib, ns


# --- Table 2 shape -----------------------------------------------------------

def test_table2_within_factor_of_paper():
    """Each row's metrics land within ~3x of the paper's values and the
    row ordering by noise rate is preserved."""
    data = run_experiment("table2", fast=True, seed=0).data
    for label, row in data.items():
        paper_max, paper_rate = TABLE2_PAPER[label]
        assert row["max_noise_us"] < 3.0 * paper_max + 50, label
        assert row["noise_rate"] == pytest.approx(paper_rate, rel=0.6), label
    # Daemons dominate everything by orders of magnitude.
    assert data["Daemon process"]["noise_rate"] > \
        50 * data["PMU counter reads"]["noise_rate"]


def test_fully_tuned_baseline_is_clean():
    """The 'None' row: ~50 us max, ~3.8e-6 rate."""
    data = run_experiment("table2", fast=True, seed=1).data["None"]
    assert data["max_noise_us"] < 150
    assert data["noise_rate"] == pytest.approx(3.79e-6, rel=0.3)


# --- §6.4 application claims -----------------------------------------------

def test_mckernel_consistently_wins_on_ofp():
    """'IHK/McKernel consistently outperforms the moderately tuned
    Linux environment on Oakforest-PACS.'"""
    for app in ("AMG2013", "Milc", "Lulesh", "LQCD", "GeoFEM", "GAMERA"):
        comp = quick_compare(app, platform="ofp", nodes=1024, seed=0)
        assert comp.relative_performance > 1.0, app


def test_lulesh_reaches_2x_on_ofp():
    comp = quick_compare("Lulesh", platform="ofp", nodes=8192, seed=0)
    assert comp.relative_performance == pytest.approx(2.0, abs=0.35)


def test_lqcd_gain_grows_to_25pct_on_ofp():
    small = quick_compare("LQCD", platform="ofp", nodes=256, seed=0)
    large = quick_compare("LQCD", platform="ofp", nodes=2048, seed=0)
    assert large.relative_performance > small.relative_performance
    assert large.speedup_percent == pytest.approx(25.0, abs=8.0)


def test_fugaku_lqcd_almost_identical():
    comp = quick_compare("LQCD", platform="fugaku", nodes=2048, seed=0)
    assert abs(comp.speedup_percent) < 4.0


def test_fugaku_geofem_about_3pct():
    comps = [quick_compare("GeoFEM", platform="fugaku", nodes=n,
                           n_runs=5, seed=0)
             for n in (512, 2048, 8192)]
    gains = [c.speedup_percent for c in comps]
    assert np.mean(gains) == pytest.approx(3.0, abs=2.5)


def test_fugaku_gamera_reaches_29pct_at_8k():
    comp = quick_compare("GAMERA", platform="fugaku", nodes=8192, seed=0)
    assert comp.speedup_percent == pytest.approx(29.0, abs=7.0)
    smaller = quick_compare("GAMERA", platform="fugaku", nodes=512, seed=0)
    assert smaller.speedup_percent < comp.speedup_percent


def test_gamera_gain_driven_by_init_registration():
    comp = quick_compare("GAMERA", platform="fugaku", nodes=8192, seed=0)
    init_gap = comp.linux.breakdown.init - comp.mckernel.breakdown.init
    total_gap = comp.linux.mean_time - comp.mckernel.mean_time
    assert init_gap > 0.6 * total_gap  # init dominates the difference


def test_lulesh_gain_driven_by_heap_management():
    comp = quick_compare("Lulesh", platform="ofp", nodes=1024, seed=0)
    assert comp.linux.breakdown.churn > 50 * comp.mckernel.breakdown.churn


def test_headline_summary_bands():
    data = run_experiment("summary", fast=True, seed=0).data
    # "an average of 4% speedup across all our experiments, with a few
    # exceptions where the LWK outperforms Linux by up to 29%."
    assert 1.0 < data["fugaku_mean_gain_percent"] < 10.0
    assert data["fugaku_max_gain_percent"] == pytest.approx(29.0, abs=7.0)
    assert data["ofp_mean_gain_percent"] > data["fugaku_mean_gain_percent"]
    assert data["ofp_max_gain_percent"] == pytest.approx(100.0, abs=25.0)


# --- tuning-level claim ----------------------------------------------------

def test_tuning_matters_more_than_kernel_choice():
    """The paper's core finding: a highly tuned Linux gets close to LWK
    performance; an untuned one does not.  Disabling just the daemon
    countermeasure on Fugaku-like Linux swings results far more than
    the remaining Linux-vs-McKernel gap."""
    machine = fugaku()
    profile = ALL_PROFILES["LQCD"]()
    tuned = fugaku_production()
    detuned = tuned.disable(Countermeasure.DAEMON_BINDING)
    mck = boot_mckernel(machine.node, host_tuning=tuned)
    tuned_comp = compare(machine, profile,
                         LinuxKernel(machine.node, tuned), mck,
                         [2048], seed=0)[0]
    detuned_comp = compare(machine, profile,
                           LinuxKernel(machine.node, detuned), mck,
                           [2048], seed=0)[0]
    assert detuned_comp.speedup_percent > 10 * abs(tuned_comp.speedup_percent)


def test_fwq_tail_orderings_across_stack():
    """FWQ under the three OS stacks on one node design orders as the
    paper's Fig. 4: untuned Linux >> tuned Linux >= McKernel."""
    machine = a64fx_testbed()
    cfg = FwqConfig(duration=120.0)
    rng = np.random.default_rng(0)
    tuned = run_fwq_on(LinuxKernel(machine.node, fugaku_production()),
                       cfg, rng)
    bare = run_fwq_on(LinuxKernel(machine.node, untuned()), cfg, rng)
    mck = run_fwq_on(boot_mckernel(machine.node), cfg, rng)
    assert bare.noise_rate > 20 * tuned.noise_rate
    assert tuned.noise_rate >= mck.noise_rate
    assert bare.max_noise_length > tuned.max_noise_length


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shapes_robust_across_seeds(seed):
    """The headline shapes must hold for any seed, not just the default
    (guards against calibration luck)."""
    gamera = [quick_compare("GAMERA", platform="fugaku", nodes=n, seed=seed)
              for n in (512, 8192)]
    assert gamera[1].relative_performance > gamera[0].relative_performance
    assert gamera[1].speedup_percent == pytest.approx(29.0, abs=8.0)
    lulesh = quick_compare("Lulesh", platform="ofp", nodes=8192, seed=seed)
    assert lulesh.relative_performance == pytest.approx(2.0, abs=0.4)
    lqcd = quick_compare("LQCD", platform="fugaku", nodes=2048, seed=seed)
    assert abs(lqcd.speedup_percent) < 5.0


# --- ablations: the design choices EXPERIMENTS.md lists ---------------------

def _populate_cost(policy: LargePagePolicy) -> float:
    """Populate 256 MiB of heap under one page policy (per-rank init)."""
    tuning = replace(
        fugaku_production(),
        large_pages=policy,
        hugetlb_overcommit=policy is LargePagePolicy.HUGETLBFS,
        charge_surplus_hugetlb=policy is LargePagePolicy.HUGETLBFS,
        name=f"ablation-{policy.value}",
    )
    kernel = LinuxKernel(fugaku().node, tuning)
    kind = kernel.app_page_kind()
    return kernel.costs.populate_cost(
        mib(256), kernel.app_page_geometry().size_of(kind), kind)


def test_ablation_pages_hugetlbfs_is_cheaper_and_512mib_pages_fragment():
    """§4.1.3: hugeTLBfs beats base pages on fault-path cost, and after
    churn the buddy allocator still yields 2 MiB (contiguous-bit) blocks
    but no 512 MiB block, which is why Fugaku avoided 512 MiB pages."""
    assert _populate_cost(LargePagePolicy.HUGETLBFS) < \
        _populate_cost(LargePagePolicy.NONE)

    buddy = BuddyAllocator(16384)  # 1 GiB of 64 KiB pages
    held = [buddy.alloc(0) for _ in range(16384)]
    for i, blk in enumerate(held):
        if i % 64 != 0:  # free all but a sparse residue
            buddy.free(blk)
    assert buddy.can_allocate(AARCH64_64K.order_of(PageKind.CONTIG))
    assert not buddy.can_allocate(AARCH64_64K.order_of(PageKind.HUGE))


def test_ablation_tlb_ipi_costs_issuer_3x_and_broadcast_costs_victims():
    """§4.2.2: a software IPI shootdown costs the issuer more than 3x the
    hardware broadcast (why broadcast stays for multi-core processes);
    broadcast costs every victim 200 ns per TLBI, and the RHEL patch
    (local-only for single-core processes) costs it nothing."""
    spec = fugaku().node.tlb
    storm = 1000  # a GC / process-exit storm
    issuer = {mode: TlbModel(spec, mode).shootdown_cost(
        storm, n_target_cores=47) for mode in TlbFlushMode}
    assert issuer[TlbFlushMode.IPI] > 3 * issuer[TlbFlushMode.BROADCAST]
    victim = {mode: TlbModel(spec, mode).victim_delay(
        storm, threads_on_one_core=True) for mode in TlbFlushMode}
    assert victim[TlbFlushMode.BROADCAST] == pytest.approx(storm * ns(200))
    assert victim[TlbFlushMode.LOCAL_ONLY] == 0.0


def test_ablation_delegation_picodriver_beats_linux_100x():
    """§5.1: a delegated STAG registration is strictly slower than the
    native Linux ioctl; the PicoDriver fast path is more than 100x
    faster than Linux for a large (256 MiB) registration."""
    node = fugaku().node
    linux = registration_time(LinuxKernel(node, fugaku_production()),
                              mib(256))
    delegated = registration_time(boot_mckernel(node, picodriver=False),
                                  mib(256))
    pico = registration_time(boot_mckernel(node, picodriver=True), mib(256))
    assert delegated > linux
    assert pico < linux / 100


def test_ablation_tuning_erases_mckernel_gain():
    """The core finding quantified: McKernel's LQCD gain at 2,048 Fugaku
    nodes falls from tens of percent against untuned Linux to about zero
    against the production stack as Linux tuning rises."""
    machine = fugaku()
    profile = ALL_PROFILES["LQCD"]()
    mck = boot_mckernel(machine.node, host_tuning=fugaku_production())
    stacks = {
        "untuned": untuned(),
        # OFP-style moderate tuning on A64FX: nohz_full but no
        # isolation, and the unpatched broadcast TLB flush.
        "moderate": replace(ofp_default(), name="moderate-a64fx",
                            tlb_flush_mode=untuned().tlb_flush_mode),
        "production": fugaku_production(),
    }
    gains = {label: compare(machine, profile,
                            LinuxKernel(machine.node, tuning), mck, [2048],
                            n_runs=3, seed=0)[0].speedup_percent
             for label, tuning in stacks.items()}
    assert gains["untuned"] > gains["moderate"] > -2.0
    assert abs(gains["production"]) < 5.0
    assert gains["untuned"] > 10 * max(1e-9, abs(gains["production"]))
