"""The experiment engine: run a workload profile on (machine, OS).

This module composes every substrate into seconds, mirroring how the
paper's numbers arise:

  total = init + steps * iterations * (S + TLB + churn + collective + noise)

* ``S`` — the profile's per-thread compute per sync interval;
* ``TLB`` — translation overhead of the working set under the OS's page
  size (Table 1's TLB-reach difference), scaled by the sector-cache
  pollution factor;
* ``churn`` — Linux re-faults freed-and-reallocated heap every
  iteration (glibc returns memory to the kernel; under THP the refault
  is at base-page granularity) plus the munmap TLB shootdown, while
  McKernel's LWK heap retains memory — the LULESH mechanism (§6.4);
* ``collective`` — fabric model, grows ~log(ranks);
* ``noise`` — per-sync-interval barrier delay: max over all N threads
  of the per-thread noise, the Eq. 1 amplification that makes the LWK
  advantage grow with scale;
* ``init`` — working-set population, I/O syscalls (delegated under
  McKernel) and RDMA registration (PicoDriver vs pinned ioctl — the
  GAMERA mechanism, §5.1/§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..apps.base import WorkloadProfile
from ..hardware.machines import Machine
from ..hardware.tlb import TlbModel
from ..kernel.base import OsInstance
from ..kernel.linux import LinuxKernel
from ..kernel.pagetable import PageKind
from ..kernel.tuning import LargePagePolicy
from ..net.collectives import CollectiveModel
from ..net.rdma import register_many
from ..noise.catalog import churn_compaction_source
from ..noise.sampler import BarrierDelaySampler
from ..noise.source import NoiseSource
from ..platform.compose import noise_sources, resolve_fabric
from ..sim.rng import fnv1a_64


@dataclass(frozen=True)
class Breakdown:
    """Where the time went (totals over the whole run, seconds)."""

    compute: float
    tlb: float
    churn: float
    collective: float
    noise: float
    init: float

    @property
    def total(self) -> float:
        return (self.compute + self.tlb + self.churn + self.collective
                + self.noise + self.init)


#: Memo of ``t.ppf(0.975, df)`` keyed by ``df`` — ci95 sits on the
#: sweep hot path and must not re-enter scipy's ppf machinery (or even
#: the lazy ``from scipy import stats``) for every result.
_T_CRIT_MEMO: dict[int, float] = {}


def t_critical(df: int) -> float:
    """``t.ppf(0.975, df)``, memoized per ``df``."""
    if df <= 0:
        raise ConfigurationError("df must be positive")
    hit = _T_CRIT_MEMO.get(df)
    if hit is not None:
        return hit
    from scipy import stats

    value = float(stats.t.ppf(0.975, df))
    _T_CRIT_MEMO[df] = value
    return value


@dataclass(frozen=True)
class RunResult:
    """Outcome of running one profile on one OS at one node count."""

    app: str
    machine: str
    os_kind: str
    n_nodes: int
    n_threads: int
    times: tuple[float, ...]  # per-run wall times
    breakdown: Breakdown      # of the mean run

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.times))

    @property
    def std_time(self) -> float:
        return float(np.std(self.times))

    def ci95(self) -> tuple[float, float]:
        """95% confidence interval of the mean wall time (Student t).

        With a single run the interval degenerates to the point value.
        """
        n = len(self.times)
        if n < 2:
            return (self.mean_time, self.mean_time)
        sem = float(np.std(self.times, ddof=1)) / np.sqrt(n)
        half = t_critical(n - 1) * sem
        return (self.mean_time - half, self.mean_time + half)

    def ci95_half_width(self) -> float:
        """Half-width of :meth:`ci95` (0.0 for a single run)."""
        lo, hi = self.ci95()
        return 0.5 * (hi - lo)


def check_run_args(machine: Machine, n_nodes: int, n_runs: int) -> None:
    """Refuse a cell ``machine`` cannot run: the range ``repro run``
    and ``repro platform validate`` both apply."""
    if n_nodes <= 0 or n_nodes > machine.n_nodes:
        raise ConfigurationError(f"n_nodes must be in 1..{machine.n_nodes}")
    if n_runs <= 0:
        raise ConfigurationError("n_runs must be positive")


def _churn_page_kind(os_instance: OsInstance) -> tuple[int, PageKind]:
    """(page_bytes, kind) at which Linux re-faults churned heap memory.

    Under THP fresh anonymous memory is faulted at base granularity and
    only later collapsed by khugepaged, so churned pages effectively pay
    base-page faults; hugeTLBfs mappings fault at the huge size.
    """
    geo = os_instance.app_page_geometry()
    if isinstance(os_instance, LinuxKernel):
        if os_instance.tuning.large_pages is LargePagePolicy.HUGETLBFS:
            kind = os_instance.app_page_kind()
            return geo.size_of(kind), kind
        return geo.base, PageKind.BASE
    kind = os_instance.app_page_kind()
    return geo.size_of(kind), kind


class AppRunner:
    """Runs workload profiles against OS instances on one machine."""

    def __init__(self, machine: Machine, profile: WorkloadProfile,
                 seed: int = 0) -> None:
        self.machine = machine
        self.profile = profile
        self.seed = seed
        self.fabric = resolve_fabric(machine)

    # -- component models -------------------------------------------------

    def _tlb_time_per_interval(self, os_instance: OsInstance,
                               n_nodes: int) -> float:
        p = self.profile
        geo = os_instance.app_page_geometry()
        page_bytes = geo.size_of(os_instance.app_page_kind())
        # Both kernel personalities expose a TlbModel as ``.tlb``.
        tlb: TlbModel = os_instance.tlb  # type: ignore[attr-defined]
        overhead_per_sec = tlb.miss_overhead(
            working_set=p.working_set_at(n_nodes),
            page_size=page_bytes,
            refs_per_second=p.refs_per_second,
            locality=p.locality,
        )
        pollution = os_instance.cache_pollution_factor()
        return p.sync_interval_at(n_nodes) * overhead_per_sec * pollution

    def _churn_time_per_interval(self, os_instance: OsInstance,
                                 n_nodes: int, threads_per_rank: int) -> float:
        churn = self.profile.churn_bytes_at(n_nodes, self.machine.node.arch)
        if churn == 0:
            return 0.0
        if not isinstance(os_instance, LinuxKernel):
            # LWK heap: memory is faulted once at init and retained;
            # steady-state alloc/free cycles cost only the (local) brk
            # bookkeeping, priced as one syscall.
            return os_instance.costs.syscall_cost(delegated=False)
        page_bytes, kind = _churn_page_kind(os_instance)
        populate = os_instance.costs.populate_cost(churn, page_bytes, kind)
        # Returning the memory tears down translations: shootdown of the
        # base-page PTEs across the rank's other threads.
        geo = os_instance.app_page_geometry()
        n_flushes = -(-churn // geo.base)
        shootdown = os_instance.tlb.shootdown_cost(
            n_flushes=n_flushes,
            n_target_cores=max(0, threads_per_rank - 1),
            threads_on_one_core=(threads_per_rank == 1),
        )
        return populate + shootdown

    def _collective_time(self, n_nodes: int, ranks_per_node: int) -> float:
        model = CollectiveModel(self.fabric, n_nodes, ranks_per_node)
        return model.cost(self.profile.collective,
                          self.profile.msg_bytes_at(n_nodes))

    def _noise_sampler(
        self, os_instance: OsInstance, n_nodes: int, n_threads: int,
        sources: Sequence[NoiseSource] | None,
    ) -> BarrierDelaySampler | None:
        """The cell's barrier-delay sampler, or None when noiseless.

        ``sources`` is the platform's noise catalogue
        (:meth:`~repro.platform.resolve.ResolvedPlatform.noise_sources`
        honours the spec's noise switches); ``None`` lowers
        ``os_instance`` with every source included.  Depends only on
        (OS, n_nodes, n_threads) — never on the trial index — so one
        sampler serves every trial of a run batch.
        """
        sources = list(noise_sources(os_instance) if sources is None
                       else sources)
        # App-induced THP compaction stalls (the scale-growing half of
        # the LULESH heap effect).
        churn = self.profile.churn_bytes_at(n_nodes, self.machine.node.arch)
        if (
            churn > 0
            and isinstance(os_instance, LinuxKernel)
            and os_instance.tuning.large_pages is LargePagePolicy.THP
        ):
            sources.append(churn_compaction_source(churn))
        if not sources:
            return None
        return BarrierDelaySampler(
            sources,
            sync_interval=self.profile.sync_interval_at(n_nodes),
            n_threads=n_threads,
        )

    def _init_time(self, os_instance: OsInstance, n_nodes: int) -> float:
        p = self.profile
        costs = os_instance.costs
        geo = os_instance.app_page_geometry()
        kind = os_instance.app_page_kind()
        page_bytes = geo.size_of(kind)
        # Working-set population (both kernels; McKernel also pre-pays
        # the churn arena here — negligible next to the working set).
        populate = costs.populate_cost(p.working_set_at(n_nodes),
                                       page_bytes, kind)
        io = p.init.io_syscalls * costs.syscall_cost(
            delegated=os_instance.syscall_delegated("read")
        )
        regs = register_many(
            os_instance, p.init.reg_count, p.init.reg_bytes_each
        ).total_time * p.init.reg_repeats
        return p.init.compute + populate + io + regs

    # -- the run -------------------------------------------------------------

    def _component_times(self, os_instance: OsInstance, n_nodes: int):
        """(tlb, churn, collective, per_iter_static, init, n_intervals,
        n_threads): every per-interval component model evaluated exactly
        once; the sum feeds the per-interval cost and the same values
        price the Breakdown."""
        p = self.profile
        geo = p.geometry_for(self.machine.node.arch)
        n_threads = n_nodes * geo.threads_per_node
        tlb_time = self._tlb_time_per_interval(os_instance, n_nodes)
        churn_time = self._churn_time_per_interval(os_instance, n_nodes,
                                                   geo.threads_per_rank)
        collective_time = self._collective_time(n_nodes, geo.ranks_per_node)
        per_iter_static = (
            p.sync_interval_at(n_nodes) + tlb_time + churn_time
            + collective_time
        )
        init = self._init_time(os_instance, n_nodes)
        n_intervals = p.iterations * p.steps
        return (tlb_time, churn_time, collective_time, per_iter_static,
                init, n_intervals, n_threads)

    def _trial_batch(
        self, os_instance: OsInstance, n_nodes: int, n_threads: int,
        run_indices: range,
        sampler: BarrierDelaySampler | None,
        per_iter_static: float, init: float, n_intervals: int,
        batch_trials: bool,
    ) -> tuple[list[float], list[float]]:
        """(wall times, per-interval noise means) for one batch of
        trials, bit-identical for either value of ``batch_trials``.

        Every trial derives its RNG streams purely from its own
        ``run_idx``, so batches compose: trials ``0..k`` drawn as one
        batch equal trials ``0..k`` drawn as several.
        """
        p = self.profile
        os_tag = fnv1a_64(f"{p.name}/{os_instance.kind}")
        rngs = [
            np.random.default_rng((self.seed, run_idx, n_nodes, os_tag))
            for run_idx in run_indices
        ]
        if sampler is None:
            noise_means = [0.0] * len(rngs)
        elif batch_trials:
            # One vectorized draw for the whole batch: the per-trial
            # generators are consumed exactly as the serial loop would,
            # but the order-statistic inverse-CDF evaluation runs once
            # per source instead of once per (source, trial).
            rows = sampler.sample_batch(min(p.iterations, 512), rngs)
            noise_means = [float(row.mean()) for row in rows]
        else:
            n_sample = min(p.iterations, 512)
            noise_means = [float(sampler.sample(n_sample, rng).mean())
                           for rng in rngs]
        times = []
        common_tag = fnv1a_64(p.name)
        for rng, run_idx, noise in zip(rngs, run_indices, noise_means):
            base = init + n_intervals * (per_iter_static + noise)
            # Run-to-run variability has two parts: the node assignment
            # (shared between the two OSes — the paper used "the exact
            # same compute nodes" for each pair, so it cancels in the
            # ratio) and an OS-private residual.
            rng_common = np.random.default_rng(
                (self.seed, run_idx, n_nodes, common_tag))
            jitter = float(
                np.exp(0.8 * p.variability * rng_common.standard_normal())
                * np.exp(0.36 * p.variability * rng.standard_normal())
            )
            times.append(base * jitter)
        return times, noise_means

    def _result(self, os_instance: OsInstance, n_nodes: int,
                n_threads: int, times: list[float],
                noise_means: list[float], tlb_time: float,
                churn_time: float, collective_time: float, init: float,
                n_intervals: int) -> RunResult:
        p = self.profile
        mean_noise = float(np.mean(noise_means))
        breakdown = Breakdown(
            compute=n_intervals * p.sync_interval_at(n_nodes),
            tlb=n_intervals * tlb_time,
            churn=n_intervals * churn_time,
            collective=n_intervals * collective_time,
            noise=n_intervals * mean_noise,
            init=init,
        )
        return RunResult(
            app=p.name,
            machine=self.machine.name,
            os_kind=os_instance.kind,
            n_nodes=n_nodes,
            n_threads=n_threads,
            times=tuple(times),
            breakdown=breakdown,
        )

    def run(self, os_instance: OsInstance, n_nodes: int,
            n_runs: int = 3, batch_trials: bool = True,
            sources: Sequence[NoiseSource] | None = None) -> RunResult:
        """Execute the profile ``n_runs`` times; per-run noise and
        variability draws differ, producing the error bars of Figs. 5-7.

        ``batch_trials=False`` forces the historical per-trial sampling
        loop; the result is bit-identical either way (asserted in
        tests and measured by the ``sweep_multitrial`` benchmarks).
        ``sources`` is the noise catalogue (see :meth:`_noise_sampler`).
        """
        check_run_args(self.machine, n_nodes, n_runs)
        (tlb_time, churn_time, collective_time, per_iter_static, init,
         n_intervals, n_threads) = self._component_times(os_instance, n_nodes)
        sampler = self._noise_sampler(os_instance, n_nodes, n_threads,
                                      sources)
        times, noise_means = self._trial_batch(
            os_instance, n_nodes, n_threads, range(n_runs), sampler,
            per_iter_static, init, n_intervals, batch_trials)
        return self._result(os_instance, n_nodes, n_threads, times,
                            noise_means, tlb_time, churn_time,
                            collective_time, init, n_intervals)

    def run_adaptive(self, os_instance: OsInstance, n_nodes: int,
                     n_runs: int = 3, target_ci: float = 0.05,
                     max_runs: int = 64,
                     sources: Sequence[NoiseSource] | None = None,
                     ) -> RunResult:
        """Monte-Carlo cell with variance-adaptive early stopping.

        Trials are drawn in batches of ``n_runs`` until the Student-t
        95% CI half-width of the mean wall time falls to ``target_ci``
        (as a fraction of the mean) or ``max_runs`` trials have been
        drawn.  The stopping decision depends only on this cell's own
        RNG streams (trial ``k`` is always derived from coordinate
        ``k``), so results are bit-identical across ``--jobs`` and
        across cell execution order.
        """
        check_run_args(self.machine, n_nodes, n_runs)
        if target_ci <= 0:
            raise ConfigurationError("target_ci must be positive")
        if max_runs < n_runs:
            raise ConfigurationError("max_runs must be >= n_runs")
        (tlb_time, churn_time, collective_time, per_iter_static, init,
         n_intervals, n_threads) = self._component_times(os_instance, n_nodes)
        sampler = self._noise_sampler(os_instance, n_nodes, n_threads,
                                      sources)
        times: list[float] = []
        noise_means: list[float] = []
        while True:
            start = len(times)
            batch = min(n_runs, max_runs - start)
            t, nm = self._trial_batch(
                os_instance, n_nodes, n_threads,
                range(start, start + batch), sampler,
                per_iter_static, init, n_intervals, batch_trials=True)
            times.extend(t)
            noise_means.extend(nm)
            n = len(times)
            if n >= max_runs:
                break
            if n >= 2:
                mean = float(np.mean(times))
                sem = float(np.std(times, ddof=1)) / np.sqrt(n)
                half = t_critical(n - 1) * sem
                if half <= target_ci * abs(mean):
                    break
        return self._result(os_instance, n_nodes, n_threads, times,
                            noise_means, tlb_time, churn_time,
                            collective_time, init, n_intervals)


@dataclass(frozen=True)
class Comparison:
    """Linux vs McKernel at one node count (Figs. 5-7 bar pairs)."""

    n_nodes: int
    linux: RunResult
    mckernel: RunResult

    @property
    def relative_performance(self) -> float:
        """McKernel performance relative to Linux == 1 (paper's Y axis;
        higher is better, computed as time ratio)."""
        return self.linux.mean_time / self.mckernel.mean_time

    @property
    def speedup_percent(self) -> float:
        return (self.relative_performance - 1.0) * 100.0

