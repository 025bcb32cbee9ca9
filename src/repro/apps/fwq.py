"""FWQ — the Fixed Work Quanta noise benchmark (§6.2, LLNL).

FWQ "performs a fixed amount of work in a loop, which contains only
computation and does not access memory nor performs file I/O, it
records the execution time for each loop iteration".  The paper
configures the quantum to ~6.5 ms (largest value below 10 ms on
Fugaku, matching Linux' default timer frequency) and extends FWQ to run
on an arbitrary number of nodes over MPI, measuring all cores
simultaneously and in-situ keeping only the 100 worst nodes.

Both capabilities are reproduced here on top of the noise samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..kernel.base import OsInstance
from ..noise.analytic import max_noise_length, noise_lengths, noise_rate
from ..noise.catalog import noise_sources_for
# worst_nodes is no longer called here, but perfbench's tracer patches
# it at every module that imports it by name, this one included.
from ..noise.sampler import (  # noqa: F401
    WorstNodes,
    multi_core_fwq,
    stream_worst_nodes,
    worst_nodes,
)
from ..noise.source import NoiseSource
from ..units import ms

#: The paper's quantum: ~6.5 ms.
DEFAULT_QUANTUM = 6.5e-3


@dataclass(frozen=True)
class FwqConfig:
    """One FWQ invocation."""

    #: Target work quantum (seconds of pure computation per loop).
    quantum: float = DEFAULT_QUANTUM
    #: Wall-clock length of one measurement, seconds (paper: ~6 minutes).
    duration: float = 360.0
    #: Repetitions (paper: 10 iterations covering one hour).
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.quantum <= 0 or self.duration <= 0 or self.repeats <= 0:
            raise ConfigurationError("FWQ parameters must be positive")
        if self.quantum >= 10e-3:
            raise ConfigurationError(
                "the paper requires the quantum below 10 ms"
            )

    @property
    def iterations_per_run(self) -> int:
        return max(1, int(self.duration / self.quantum))


@dataclass
class FwqResult:
    """Per-iteration timings of one (multi-run) FWQ measurement."""

    quantum: float
    iteration_lengths: np.ndarray  # 1-D, pooled over runs/cores

    @property
    def noise_rate(self) -> float:
        """Eq. 2 metric."""
        return noise_rate(self.iteration_lengths)

    @property
    def max_noise_length(self) -> float:
        """Table 2 metric: T_max - T_min."""
        return max_noise_length(self.iteration_lengths)

    @property
    def noise_lengths(self) -> np.ndarray:
        """Figure 3's series: L_i = T_i - T_min."""
        return noise_lengths(self.iteration_lengths)

    def cdf(self, n_points: int = 256) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF of iteration lengths (Figure 4's axes)."""
        lengths = np.sort(self.iteration_lengths)
        idx = np.linspace(0, len(lengths) - 1, n_points).astype(np.int64)
        probs = (idx + 1) / len(lengths)
        return lengths[idx], probs


def run_fwq(
    sources: Sequence[NoiseSource],
    config: FwqConfig,
    rng: np.random.Generator,
) -> FwqResult:
    """Single-core FWQ against an explicit source catalogue.

    All ``repeats`` runs are charged in one batched accumulation
    (:func:`multi_core_fwq` with one "core" per repeat): the event
    draws consume ``rng`` in exactly the order the historical
    per-repeat :func:`fwq_iteration_lengths` loop did, so the pooled
    series is bit-identical — only the per-repeat Python loop and its
    per-repeat charging passes are gone.
    """
    lengths = multi_core_fwq(sources, config.quantum,
                             config.iterations_per_run, config.repeats, rng)
    return FwqResult(quantum=config.quantum,
                     iteration_lengths=lengths.reshape(-1))


def run_fwq_on(
    os_instance: OsInstance,
    config: FwqConfig,
    rng: np.random.Generator,
    include_stragglers: bool = False,
) -> FwqResult:
    """Single-core FWQ under an OS instance's derived catalogue."""
    sources = noise_sources_for(os_instance,
                                include_stragglers=include_stragglers)
    return run_fwq(sources, config, rng)


@dataclass
class FtqResult:
    """Fixed *Time* Quanta output: work completed per fixed window.

    FTQ is FWQ's sibling in the LLNL suite [32]: instead of timing a
    fixed amount of work, it counts work units completed in fixed time
    windows — noise shows up as *missing work*.  Both views are provided
    because FTQ's fixed time base makes spectral analysis of periodic
    noise possible.
    """

    window: float
    work_units: np.ndarray  # units completed per window

    @property
    def max_units(self) -> int:
        return int(self.work_units.max())

    @property
    def lost_work_fraction(self) -> float:
        """Fraction of work capacity lost to noise (Eq. 2's FTQ dual)."""
        peak = self.work_units.max()
        if peak <= 0:
            return 0.0
        return float(1.0 - self.work_units.mean() / peak)

    def noise_windows(self, threshold: float = 0.99) -> int:
        """Windows that lost more than (1 - threshold) of peak work."""
        return int((self.work_units < threshold * self.work_units.max()).sum())


def run_ftq(
    sources: Sequence[NoiseSource],
    rng: np.random.Generator,
    window: float = 1e-3,
    duration: float = 60.0,
    unit_cost: float = 1e-6,
) -> FtqResult:
    """FTQ: count 1 us work units completed per ``window`` under noise.

    Implemented on the same event machinery as FWQ: each window's
    capacity is ``window`` minus the noise landing in it.
    """
    if window <= 0 or duration <= 0 or unit_cost <= 0:
        raise ConfigurationError("FTQ parameters must be positive")
    n_windows = max(1, int(duration / window))
    stolen = np.zeros(n_windows)
    for source in sources:
        starts, durations = source.sample_events(duration, rng)
        if len(starts) == 0:
            continue
        idx = np.minimum((starts / window).astype(np.int64), n_windows - 1)
        np.add.at(stolen, idx, durations)
    available = np.clip(window - stolen, 0.0, window)
    return FtqResult(window=window,
                     work_units=np.floor(available / unit_cost))


@dataclass
class MpiFwqResult:
    """The MPI-parallel FWQ extension's output (Figure 4)."""

    quantum: float
    #: The kept nodes after worst-node selection, as their events.
    worst: WorstNodes
    total_samples_represented: float

    @cached_property
    def node_lengths(self) -> np.ndarray:
        """(kept_nodes, iterations) array, built on first read."""
        return self.worst.rows()

    @property
    def max_length(self) -> float:
        """The longest kept iteration, without building any rows."""
        return float(self.worst.maxima.max())

    def pooled(self) -> FwqResult:
        return FwqResult(quantum=self.quantum,
                         iteration_lengths=self.node_lengths.ravel())


def run_mpi_fwq(
    os_instance: OsInstance,
    n_nodes: int,
    config: FwqConfig,
    rng: np.random.Generator,
    cores_per_node: int | None = None,
    keep_worst: int = 100,
    max_explicit_nodes: int = 256,
) -> MpiFwqResult:
    """The paper's at-scale FWQ: all cores of ``n_nodes`` measured
    simultaneously, saving only the ``keep_worst`` noisiest nodes.

    Nodes are statistically identical, so at most ``max_explicit_nodes``
    are simulated explicitly (one aggregate core-noise stream per node);
    the result records how many samples the run *represents* so that
    tail extrapolation (:class:`repro.noise.analytic.IterationMixture`)
    can be anchored to it.
    """
    for name, value in (("n_nodes", n_nodes), ("keep_worst", keep_worst),
                        ("max_explicit_nodes", max_explicit_nodes)):
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive")
    sources = noise_sources_for(os_instance, include_stragglers=True)
    if cores_per_node is None:
        cores_per_node = max(1, len(os_instance.app_cpu_ids()))
    explicit = min(n_nodes, max_explicit_nodes)
    n_iter = config.iterations_per_run * config.repeats
    # One representative core per node (cores are iid; pooling per
    # node would only shrink the per-node variance of the mean).  Like
    # the paper's in-situ reduction, nodes are ranked as they run and
    # only the kept nodes' events survive: the result is bit-identical
    # to worst_nodes(multi_core_fwq(...)) without its dense timeline.
    worst = stream_worst_nodes(sources, config.quantum, n_iter, explicit,
                               keep_worst, rng)
    return MpiFwqResult(
        quantum=config.quantum,
        worst=worst,
        total_samples_represented=float(n_nodes) * cores_per_node * n_iter,
    )
