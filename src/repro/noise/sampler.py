"""Vectorized Monte-Carlo samplers for noise timelines.

Two samplers cover the paper's measurement modes:

* :func:`fwq_iteration_lengths` — one core's FWQ run: per-iteration
  elapsed times with every noise event charged to the iteration it
  lands in (Figures 3, 4 at simulatable scale; Table 2);
* :class:`BarrierDelaySampler` — per-sync-interval delay of an N-thread
  bulk-synchronous application: the max over all threads of the noise
  each suffers in one interval, drawn exactly via binomial hit counts +
  the order-statistic inverse-CDF trick (no per-thread state), which is
  what makes N = 7,630,848 (full Fugaku) tractable.

The MPI-parallel FWQ's in-situ reduction, :func:`stream_worst_nodes`,
ranks many simulated nodes through one reused timeline row and keeps
only the worst nodes' events (Figure 4).  :func:`pooled_fwq_stats`
reduces the pooled multi-core series to Table 2's statistics from the
charged iterations alone.  Both match the dense
:func:`multi_core_fwq` timeline, which stays as their reference, bit
for bit.

Everything here is NumPy-vectorized per the HPC-Python guides: no
per-event Python loops on the hot paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .source import NoiseSource, Occurrence

#: Shared zero-length placeholders for trials a source never hit, and
#: the seeds of an FWQ node's event lists.
_EMPTY = np.empty(0)
_EMPTY_IDX = np.empty(0, dtype=np.int64)


def fwq_iteration_lengths(
    sources: Sequence[NoiseSource],
    t_work: float,
    n_iterations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate one core running FWQ: ``n_iterations`` quanta of
    ``t_work`` seconds of pure computation, delayed by noise events.

    Events are generated per source over the nominal horizon and charged
    to the iteration whose work window contains their start.  Since the
    calibrated catalogues have duty cycles <= 1e-3 the nominal-time
    approximation (iteration i spans [i*t_work, (i+1)*t_work)) distorts
    event placement by under 0.1% — negligible against the paper's
    run-to-run variation.
    """
    _check_fwq_shape(t_work, n_iterations)
    lengths = np.full(n_iterations, t_work, dtype=float)
    horizon = n_iterations * t_work
    for source in sources:
        starts, durations = source.sample_events(horizon, rng)
        if len(starts) == 0:
            continue
        idx = np.minimum(
            (starts / t_work).astype(np.int64), n_iterations - 1
        )
        np.add.at(lengths, idx, durations)
    return lengths


def _node_events(
    sources: Sequence[NoiseSource],
    t_work: float,
    n_iterations: int,
    n_nodes: int,
    rng: np.random.Generator,
):
    """Yield each node's noise events as one ``(iteration index,
    duration)`` pair of arrays, drawn node-major, source-minor on
    ``rng`` over the nominal horizon (the stream per-core
    :func:`fwq_iteration_lengths` calls consume)."""
    horizon = n_iterations * t_work
    for _ in range(n_nodes):
        idx_chunks = [_EMPTY_IDX]
        dur_chunks = [_EMPTY]
        for source in sources:
            starts, durations = source.sample_events(horizon, rng)
            idx_chunks.append(np.minimum(
                (starts / t_work).astype(np.int64), n_iterations - 1))
            dur_chunks.append(durations)
        yield np.concatenate(idx_chunks), np.concatenate(dur_chunks)


def _check_fwq_shape(t_work: float, n_iterations: int) -> None:
    if t_work <= 0:
        raise ConfigurationError("t_work must be positive")
    if n_iterations <= 0:
        raise ConfigurationError("n_iterations must be positive")


def _fwq_events(
    sources: Sequence[NoiseSource],
    t_work: float,
    n_iterations: int,
    n_cores: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Every core's noise events as one flat ``(core * n_iterations +
    iteration index, duration)`` pair of arrays, in draw order: core
    major, source minor, the exact RNG stream of per-core
    :func:`fwq_iteration_lengths` calls."""
    if n_cores <= 0:
        raise ConfigurationError("n_cores must be positive")
    _check_fwq_shape(t_work, n_iterations)
    idx_chunks: list[np.ndarray] = []
    dur_chunks: list[np.ndarray] = []
    for core, (idx, durations) in enumerate(
            _node_events(sources, t_work, n_iterations, n_cores, rng)):
        idx_chunks.append(idx + core * n_iterations)
        dur_chunks.append(durations)
    return np.concatenate(idx_chunks), np.concatenate(dur_chunks)


def multi_core_fwq(
    sources: Sequence[NoiseSource],
    t_work: float,
    n_iterations: int,
    n_cores: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """FWQ on many cores simultaneously (the paper's MPI-parallel FWQ
    extension).  Returns an ``(n_cores, n_iterations)`` array.  Cores
    are statistically independent: each gets its own event draws."""
    # The charging is batched into a single accumulation over a flat
    # (n_cores * n_iterations) timeline.  np.add.at applies updates
    # sequentially per slot, and each slot belongs to one (core,
    # source-ordered) chunk, so the float accumulation order — hence
    # every bit of the result — is that of per-core calls.
    slots, durations = _fwq_events(sources, t_work, n_iterations, n_cores,
                                   rng)
    flat = np.full(n_cores * n_iterations, t_work, dtype=float)
    np.add.at(flat, slots, durations)
    return flat.reshape(n_cores, n_iterations)


def pooled_fwq_stats(
    sources: Sequence[NoiseSource],
    t_work: float,
    n_iterations: int,
    n_cores: int,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """Table 2's statistics of a multi-core FWQ run, without its series.

    Returns ``(t_min, max_noise, noise_rate)`` of the pooled series,
    bit-identical to ``lengths = multi_core_fwq(...).ravel()`` followed
    by ``lengths.min()``, :func:`~repro.noise.analytic.max_noise_length`
    and :func:`~repro.noise.analytic.noise_rate`, from the same draws,
    while touching only the charged slots:

    * each charged slot's length is accumulated by ``np.add.at`` in
      draw order, as on the dense timeline;
    * durations are non-negative, so ``t_min`` is ``t_work`` whenever a
      slot is uncharged, and every uncharged slot then contributes an
      exact ``+0.0`` to the Eq. 2 mean;
    * the mean's sum replays numpy's pairwise ``add.reduce`` tree over
      the charged slots only (:func:`_sparse_pairwise_sum`).
    """
    slots, durations = _fwq_events(sources, t_work, n_iterations, n_cores,
                                   rng)
    n = n_cores * n_iterations
    charged, inverse = np.unique(slots, return_inverse=True)
    lengths = np.full(len(charged), t_work, dtype=float)
    np.add.at(lengths, inverse, durations)
    t_min = t_work if len(charged) < n else float(lengths.min())
    max_noise = float(lengths.max(initial=t_work)) - t_min
    rates = (lengths - t_min) / t_min
    return t_min, max_noise, _sparse_pairwise_sum(charged, rates, n) / n


#: numpy's pairwise-summation leaf size (``PW_BLOCKSIZE``) and unroll.
_PW_BLOCK = 128
_PW_LANES = 8


def _sparse_pairwise_sum(positions: np.ndarray, values: np.ndarray,
                         n: int) -> float:
    """``np.add.reduce`` of a float64 array of length ``n`` that is
    ``+0.0`` except for ``values`` at the sorted, unique ``positions``,
    bit for bit, in time proportional to the values.

    numpy sums a contiguous float64 array with a fixed tree: a run of
    more than 128 elements splits at ``n2 = n//2 - (n//2) % 8``; a leaf
    sums 8 lane accumulators strided by 8, combines them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the ``len % 8``
    tail in order.  Adding ``+0.0`` is exact, so a subtree without
    values contributes nothing and is never visited; the walk is
    vectorised level by level.  ``values`` must not hold ``-0.0``.
    """
    if len(positions) == 0:
        return 0.0
    # Descend: each level holds the runs that contain values.  A run of
    # more than 128 elements splits; ``children`` maps it to its left
    # and right runs' indices in the next level (-1 for an empty one).
    starts = np.zeros(1, dtype=np.int64)
    sizes = np.array([n], dtype=np.int64)
    splits: list[np.ndarray] = []
    children: list[np.ndarray] = []
    leaf_starts: list[np.ndarray] = []
    leaf_sizes: list[np.ndarray] = []
    while True:
        split = sizes > _PW_BLOCK
        splits.append(split)
        leaf_starts.append(starts[~split])
        leaf_sizes.append(sizes[~split])
        if not split.any():
            break
        half = sizes[split] // 2
        left = half - half % _PW_LANES
        starts = np.stack([starts[split], starts[split] + left], axis=1)
        sizes = np.stack([left, sizes[split] - left], axis=1)
        occupied = (np.searchsorted(positions, starts + sizes)
                    > np.searchsorted(positions, starts))
        children.append(
            np.where(occupied, np.cumsum(occupied).reshape(-1, 2) - 1, -1))
        starts, sizes = starts[occupied], sizes[occupied]
    # Leaves, in level order: lane sums, the lane combine, then the tail.
    bounds = np.cumsum([0] + [len(s) for s in leaf_starts])
    starts, sizes = np.concatenate(leaf_starts), np.concatenate(leaf_sizes)
    order = np.argsort(starts)
    leaf = order[np.searchsorted(starts[order], positions, side="right") - 1]
    offset = positions - starts[leaf]
    in_lanes = offset < sizes[leaf] - sizes[leaf] % _PW_LANES
    lanes = np.zeros((len(starts), _PW_LANES))
    np.add.at(lanes.reshape(-1),
              leaf[in_lanes] * _PW_LANES + offset[in_lanes] % _PW_LANES,
              values[in_lanes])
    r = lanes.T
    leaf_sums = (((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7])))
    np.add.at(leaf_sums, leaf[~in_lanes], values[~in_lanes])
    # Ascend: a split run sums to its left child's sum plus its right's.
    below = np.zeros(0)
    for depth in reversed(range(len(splits))):
        split = splits[depth]
        sums = np.empty(len(split))
        sums[~split] = leaf_sums[bounds[depth]:bounds[depth + 1]]
        if depth < len(children):
            padded = np.append(below, 0.0)  # index -1 reads this +0.0
            pair = children[depth]
            sums[split] = padded[pair[:, 0]] + padded[pair[:, 1]]
        below = sums
    return float(below[0])


def worst_nodes(
    per_node_lengths: np.ndarray, keep: int
) -> np.ndarray:
    """The paper's in-situ reduction: keep only the ``keep`` worst nodes
    (largest total noise duration) from a (nodes, iterations) array."""
    if per_node_lengths.ndim != 2:
        raise ConfigurationError("expected a (nodes, iterations) array")
    if keep <= 0:
        raise ConfigurationError("keep must be positive")
    totals = per_node_lengths.sum(axis=1)
    keep = min(keep, per_node_lengths.shape[0])
    idx = np.argpartition(totals, -keep)[-keep:]
    return per_node_lengths[idx]


@dataclass(frozen=True)
class WorstNodes:
    """The worst nodes of a multi-node FWQ run, held as noise events.

    Built by :func:`stream_worst_nodes`; the timelines themselves are
    built only on request (:meth:`rows`)."""

    t_work: float
    n_iterations: int
    #: Every node's total run time, in node order.
    totals: np.ndarray
    #: Per kept node, in :func:`worst_nodes`' ``argpartition`` order,
    #: its events as (iteration index, duration) arrays.
    events: tuple[tuple[np.ndarray, np.ndarray], ...]
    #: Per kept node, its longest iteration.
    maxima: np.ndarray

    def rows(self) -> np.ndarray:
        """The kept ``(nodes, iterations)`` timelines, bit-identical to
        ``worst_nodes(multi_core_fwq(...), keep)``."""
        rows = np.full((len(self.events), self.n_iterations), self.t_work,
                       dtype=float)
        for row, (idx, durations) in zip(rows, self.events):
            np.add.at(row, idx, durations)
        return rows


def stream_worst_nodes(
    sources: Sequence[NoiseSource],
    t_work: float,
    n_iterations: int,
    n_nodes: int,
    keep: int,
    rng: np.random.Generator,
) -> WorstNodes:
    """The in-situ worst-node selection without a dense timeline.

    Selects what ``worst_nodes(multi_core_fwq(sources, t_work,
    n_iterations, n_nodes, rng), keep)`` does without building the
    ``(n_nodes, n_iterations)`` array.  Draws the same stream as
    :func:`multi_core_fwq` and charges each node into one reused row,
    recording the row's sum and maximum.  A slot's updates arrive in
    the same order and a contiguous row sums like one row of the dense
    array, so every total, the ranking (ties included) and every kept
    row match the dense path bit for bit.  Only the kept nodes' events
    are returned.
    """
    if n_nodes <= 0:
        raise ConfigurationError("n_nodes must be positive")
    if keep <= 0:
        raise ConfigurationError("keep must be positive")
    _check_fwq_shape(t_work, n_iterations)
    totals = np.empty(n_nodes)
    maxima = np.empty(n_nodes)
    events = []
    row = np.full(n_iterations, t_work, dtype=float)
    for node, (idx, durations) in enumerate(
            _node_events(sources, t_work, n_iterations, n_nodes, rng)):
        np.add.at(row, idx, durations)
        totals[node] = row.sum()
        # Durations are non-negative, so no charged slot is below
        # t_work: the row's maximum is among the charged slots.
        maxima[node] = row[idx].max() if len(idx) else t_work
        row[idx] = t_work  # uncharge the row for the next node
        events.append((idx, durations))
    keep = min(keep, n_nodes)
    index = np.argpartition(totals, -keep)[-keep:]
    return WorstNodes(
        t_work=t_work,
        n_iterations=n_iterations,
        totals=totals,
        events=tuple(events[i] for i in index),
        maxima=maxima[index],
    )


class BarrierDelaySampler:
    """Per-sync-interval delay of an N-thread BSP application.

    For each source k and interval, the number of threads hit is
    ``m ~ Binomial(N, p_k)`` with ``p_k`` the single-thread hit
    probability over one sync interval ``S``.  The interval's delay
    contribution from source k is the largest of the ``m`` event
    durations — drawn directly as ``F_k^{-1}(U^{1/m})``.  Contributions
    of different sources add (they delay different threads; at a barrier
    the sums are dominated by the max term, and adding them is the
    conservative composition).
    """

    def __init__(
        self,
        sources: Sequence[NoiseSource],
        sync_interval: float,
        n_threads: int,
    ) -> None:
        if sync_interval <= 0:
            raise ConfigurationError("sync_interval must be positive")
        if n_threads <= 0:
            raise ConfigurationError("n_threads must be positive")
        self.sources = list(sources)
        self.sync_interval = sync_interval
        self.n_threads = n_threads
        self._probs = [self._hit_probability(s) for s in self.sources]

    def _hit_probability(self, s: NoiseSource) -> float:
        if s.occurrence is Occurrence.PERIODIC:
            return min(1.0, self.sync_interval / s.interval)
        return -math.expm1(-self.sync_interval / s.interval)

    def sample(self, n_intervals: int, rng: np.random.Generator) -> np.ndarray:
        """Delays (seconds) for ``n_intervals`` consecutive sync
        intervals of the whole N-thread application."""
        if n_intervals <= 0:
            raise ConfigurationError("n_intervals must be positive")
        delays = np.zeros(n_intervals, dtype=float)
        for p, s in zip(self._probs, self.sources):
            counts = rng.binomial(self.n_threads, p, n_intervals)
            delays += s.duration.sample_max(rng, counts)
        return delays

    def sample_batch(
        self, n_intervals: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Delays for many independent trials at once: row ``t`` of the
        returned ``(len(rngs), n_intervals)`` array is bit-identical to
        ``self.sample(n_intervals, rngs[t])``.

        Each trial's generator is consumed in exactly the order
        :meth:`sample` would consume it (per source: one binomial draw,
        then one uniform draw — skipped when no thread is hit), so the
        per-trial RNG streams are untouched.  What *is* batched is the
        expensive part: the inverse-CDF evaluation of the
        order-statistic maxima, which is elementwise and therefore
        bit-stable under concatenation, runs once per source over all
        trials instead of once per (source, trial).
        """
        if n_intervals <= 0:
            raise ConfigurationError("n_intervals must be positive")
        n_trials = len(rngs)
        if n_trials == 0:
            return np.zeros((0, n_intervals), dtype=float)
        delays = np.zeros((n_trials, n_intervals), dtype=float)
        for p, s in zip(self._probs, self.sources):
            masks: list[np.ndarray] = []
            us: list[np.ndarray] = []
            hits: list[np.ndarray] = []
            for rng in rngs:
                counts = rng.binomial(self.n_threads, p, n_intervals)
                pos = counts > 0
                n_pos = int(pos.sum())
                if n_pos:  # sample_max draws uniforms only when hit
                    us.append(rng.uniform(0.0, 1.0, n_pos))
                    hits.append(counts[pos])
                else:
                    us.append(_EMPTY)
                masks.append(pos)
            if not hits:
                continue
            # u ** (1 / counts) and the inverse CDF are elementwise, so
            # one fused evaluation over all trials is bit-identical to
            # the per-trial calls sample() makes.
            flat_q = np.concatenate(us) ** (1.0 / np.concatenate(hits))
            values = s.duration.quantile(flat_q)
            offset = 0
            for t, pos in enumerate(masks):
                n_pos = len(us[t])
                if n_pos:
                    delays[t, pos] += values[offset:offset + n_pos]
                    offset += n_pos
        return delays

    def mean_delay(self, n_intervals: int, rng: np.random.Generator) -> float:
        """Convenience: mean per-interval delay over a sampled run."""
        return float(self.sample(n_intervals, rng).mean())

    def expected_slowdown(self, n_intervals: int,
                          rng: np.random.Generator) -> float:
        """Relative slowdown of the BSP section: mean delay / S."""
        return self.mean_delay(n_intervals, rng) / self.sync_interval
