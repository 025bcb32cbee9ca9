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
ranks many simulated nodes and keeps only the worst nodes' events
(Figure 4).  :func:`pooled_fwq_stats` reduces the pooled multi-core
series to Table 2's statistics from the charged iterations alone.  Both
sum rows that are almost all ``t_work`` with
:func:`_pairwise_row_sums`, which replays numpy's pairwise
``add.reduce`` tree, laid out once per row length, from the charged
slots of a batch of rows; a node too dense for that pays less for one
reused dense row and ``row.sum()``.  Both match the dense
:func:`multi_core_fwq` timeline, which stays as their reference, bit
for bit.

Everything here is NumPy-vectorized per the HPC-Python guides: no
per-event Python loops on the hot paths.
"""

from __future__ import annotations

import functools
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
      the charged slots only (:func:`_pairwise_row_sums`).
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
    total = _pairwise_row_sums(_pairwise_tree(n), charged, rates, 1, 0.0)[0]
    return t_min, max_noise, float(total) / n


#: numpy's pairwise-summation leaf size (``PW_BLOCKSIZE``) and unroll.
_PW_BLOCK = 128
_PW_LANES = 8
#: The most elements one lane of a leaf adds.
_PW_STEPS = _PW_BLOCK // _PW_LANES
#: The fewest elements a leaf below the root has: a run of more than 128
#: splits into halves of at least 64.
_PW_MIN_LEAF = _PW_BLOCK // 2
#: Values :func:`_pairwise_row_sums` replays at once: their temporaries,
#: about 210 bytes a value, stay under 2 MB.
_REPLAY_CHUNK = 8192
#: Costs behind :func:`stream_worst_nodes`' dense/sparse choice, measured
#: on fig4's 553,840-slot rows (2-CPU VM): a dense row costs about
#: 0.35 ns a slot (charge, ``row.sum()``, uncharge), and the sparse batch
#: about 160 ns an event more than charging a dense row does.
_DENSE_NS_PER_SLOT = 0.35
_SPARSE_NS_PER_EVENT = 160.0
#: Events per slot (about 2.2e-3) above which a dense row is cheaper.
_SPARSE_DENSITY = _DENSE_NS_PER_SLOT / _SPARSE_NS_PER_EVENT


@dataclass(frozen=True)
class _PairwiseTree:
    """numpy's ``add.reduce`` tree for one row length, as its leaves in
    row order."""

    length: int
    #: Each leaf's first element, then ``length``.
    starts: np.ndarray
    #: Each leaf's size (at most 128).
    sizes: np.ndarray
    #: Each leaf's slot in the bottom level of the padded perfect binary
    #: tree; a leaf above the bottom takes the leftmost slot of its range.
    slots: np.ndarray
    #: The padded tree's depth.
    depth: int
    #: Per 64-element block, the leaf holding its first element.  Below
    #: the root every leaf has at least 64 elements, so a block meets at
    #: most that leaf and the next.
    blocks: np.ndarray

    def leaf_of(self, positions: np.ndarray) -> np.ndarray:
        """The leaf holding each position."""
        leaf = self.blocks[positions // _PW_MIN_LEAF]
        return leaf + (positions >= self.starts[leaf + 1])


@functools.lru_cache(maxsize=1)
def _pairwise_tree(n: int) -> _PairwiseTree:
    """The tree numpy sums a contiguous float64 run of ``n`` with: a run
    of more than 128 elements splits at ``n2 = n//2 - (n//2) % 8`` into
    two runs, and a run of at most 128 is a leaf.

    One length is cached, with 32-bit indices where ``n`` allows:
    callers sum rows of one length at a time, and Table 2's 8.9M-slot
    row has 124,652 leaves that need not outlive its rows."""
    index = np.int32 if n < 2**31 else np.int64
    sizes, slots, depth = _layout(n, {}, index)
    starts = np.zeros(len(sizes) + 1, dtype=index)
    np.cumsum(sizes, dtype=index, out=starts[1:])
    first_block = -(-starts // _PW_MIN_LEAF)
    blocks = np.repeat(np.arange(len(sizes), dtype=index),
                       np.diff(first_block))
    for a in (starts, sizes, slots, blocks):
        a.flags.writeable = False
    return _PairwiseTree(n, starts, sizes, slots, depth, blocks)


def _layout(size: int, memo: dict, index: type,
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """The leaf sizes and padded-tree slots (of dtype ``index``) of a run
    of ``size``, and its padded depth.  A subtree depends on its run's
    size alone, and each level holds only a few sizes, so ``memo`` lays
    each out once."""
    if size not in memo:
        if size <= _PW_BLOCK:
            memo[size] = (np.array([size], dtype=np.uint8),
                          np.zeros(1, dtype=index), 0)
        else:
            half = size // 2
            left = half - half % _PW_LANES
            l_sizes, l_slots, l_depth = _layout(left, memo, index)
            r_sizes, r_slots, r_depth = _layout(size - left, memo, index)
            depth = 1 + max(l_depth, r_depth)
            memo[size] = (
                np.concatenate([l_sizes, r_sizes]),
                np.concatenate([
                    l_slots << (depth - 1 - l_depth),
                    (r_slots << (depth - 1 - r_depth)) + (1 << depth - 1)]),
                depth)
    return memo[size]


def _leaf_sums(lanes: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """numpy's leaf sums from each leaf's 8 lane sums (``(leaves, 8)``)
    and its tail elements (``(at most 7, leaves)``), added in order."""
    r = lanes.T
    sums = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for tail in tails:
        sums += tail
    return sums


def _background_sums(background: float) -> tuple[np.ndarray, ...]:
    """For each leaf size 0-128 over a row of ``background``: each tail
    element (``(7, 129)``, ``+0.0`` past the tail's end), a lane's sum
    and the leaf's sum."""
    size = np.arange(_PW_BLOCK + 1)
    prefix = np.zeros(_PW_STEPS + 1)
    for k in range(_PW_STEPS):
        prefix[k + 1] = prefix[k] + background
    lane = prefix[size // _PW_LANES]
    tails = np.where(np.arange(_PW_LANES - 1)[:, None] < size % _PW_LANES,
                     background, 0.0)
    return tails, lane, _leaf_sums(np.repeat(lane[:, None], _PW_LANES, 1),
                                   tails)


def _pairwise_row_sums(tree: _PairwiseTree, keys: np.ndarray,
                       values: np.ndarray, n_rows: int,
                       background: float) -> np.ndarray:
    """``np.add.reduce`` of each row of an ``(n_rows, tree.length)``
    float64 array that is ``background`` except for ``values`` at the
    sorted, unique flat indices ``keys``, bit for bit, in time
    proportional to the values plus the rows' leaves.

    numpy sums a contiguous float64 row with a fixed tree
    (:func:`_pairwise_tree`).  A leaf of ``s`` elements sums 8 lane
    accumulators, lane ``j`` adding elements ``j, j+8, ...`` below ``s -
    s % 8`` in order; it combines them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the ``s % 8`` tail
    in order.  Only the lanes and tails that hold a value are replayed,
    at most 16 adds each; every other lane and leaf sums to a constant
    of the leaf's size.  The leaves then ascend the padded perfect tree,
    where each add of the padding's ``+0.0`` is exact.  Neither
    ``background`` nor ``values`` may be ``-0.0``.
    """
    # The occupied leaves' sums, a bounded number of values at a time;
    # each cut moves back to the start of its leaf.
    cuts = keys[_REPLAY_CHUNK::_REPLAY_CHUNK]
    positions = cuts % max(tree.length, 1)
    leaf = tree.leaf_of(positions)
    bounds = [0, *np.searchsorted(keys, cuts - positions + tree.starts[leaf]),
              len(keys)]
    tails, lane, leaf = _background_sums(background)
    where, sums = (np.concatenate(parts) for parts in zip(*(
        _occupied_leaf_sums(tree, keys[lo:hi], values[lo:hi], background,
                            tails, lane)
        for lo, hi in zip(bounds[:-1], bounds[1:]))))
    # Ascend each row's padded tree, in chunks of rows that together
    # take no more room than one dense row.
    base = np.zeros(1 << tree.depth)
    base[tree.slots] = leaf[tree.sizes]
    per_chunk = max(1, tree.length // len(base))
    totals = np.empty(n_rows)
    for first in range(0, n_rows, per_chunk):
        rows = np.empty((min(per_chunk, n_rows - first), len(base)))
        rows[:] = base
        lo, hi = np.searchsorted(where, [first * len(base),
                                         (first + len(rows)) * len(base)])
        rows.reshape(-1)[where[lo:hi] - first * len(base)] = sums[lo:hi]
        while rows.shape[1] > 1:
            rows = rows[:, 0::2] + rows[:, 1::2]
        totals[first:first + len(rows)] = rows[:, 0]
    return totals


def _occupied_leaf_sums(tree: _PairwiseTree, keys: np.ndarray,
                        values: np.ndarray, background: float,
                        tail_terms: np.ndarray, lane: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The sums of the leaves that hold ``values`` (whole leaves, in
    :func:`_pairwise_row_sums`' terms), with each one's flat index
    ``row * 2**depth + slot`` in the rows' padded trees, given the
    background's :func:`_background_sums`."""
    rows, positions = np.divmod(keys, max(tree.length, 1))
    leaf = tree.leaf_of(positions)
    offset = positions - tree.starts[leaf]
    body = tree.sizes[leaf] // _PW_LANES * _PW_LANES
    in_lanes = offset < body
    # Occupied leaves in (row, leaf) order: the keys are sorted, so the
    # values of one leaf are one run.
    run = rows * len(tree.sizes) + leaf
    new = np.ones(len(run), dtype=bool)
    np.not_equal(run[1:], run[:-1], out=new[1:])
    at = np.cumsum(new) - 1
    sizes = tree.sizes[leaf[new]]
    # Occupied lanes, longest first: each step adds the background to a
    # prefix of them, and a value instead where it holds one.
    lane_key = at[in_lanes] * _PW_LANES + offset[in_lanes] % _PW_LANES
    hit = np.zeros(len(sizes) * _PW_LANES, dtype=bool)
    hit[lane_key] = True
    lanes = np.flatnonzero(hit)
    steps = sizes[lanes // _PW_LANES] // _PW_LANES
    lanes = lanes[np.argsort(_PW_STEPS - steps, kind="stable")]
    # reach[k]: the lanes of at least k steps.
    reach = np.cumsum(np.bincount(steps, minlength=_PW_STEPS + 1)[::-1])[::-1]
    lane_at = np.empty(len(hit), dtype=np.int64)
    lane_at[lanes] = np.arange(len(lanes))
    lane_at = lane_at[lane_key]
    step = (offset[in_lanes] // _PW_LANES).astype(np.uint8)
    by_step = np.argsort(step, kind="stable")
    bounds = np.zeros(_PW_STEPS + 1, dtype=np.int64)
    np.cumsum(np.bincount(step, minlength=_PW_STEPS), out=bounds[1:])
    lane_values = values[in_lanes]
    acc = np.zeros(len(lanes))
    for k in range(_PW_STEPS):
        these = by_step[bounds[k]:bounds[k + 1]]
        hold = lane_at[these]
        held = acc[hold] + lane_values[these]
        acc[:reach[k + 1]] += background
        acc[hold] = held
    lane_sums = np.repeat(lane[sizes][:, None], _PW_LANES, 1)
    lane_sums.reshape(-1)[lanes] = acc
    tails = tail_terms[:int((sizes % _PW_LANES).max(initial=0)), sizes]
    in_tail = ~in_lanes
    tails[(offset - body)[in_tail], at[in_tail]] = values[in_tail]
    where = (rows[new] << tree.depth) + tree.slots[leaf[new]]
    return where, _leaf_sums(lane_sums, tails)


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
    ``(n_nodes, n_iterations)`` array, from the same stream as
    :func:`multi_core_fwq`.  A node with at most
    ``_SPARSE_DENSITY * n_iterations`` events joins one batch whose row
    sums :func:`_pairwise_row_sums` replays from the charged slots; a
    denser node is charged into one reused row and summed.  A slot's
    updates arrive in the same order and each sum follows numpy's own
    tree, so every total, the ranking (ties included) and every kept
    row match the dense path bit for bit.  Only the kept nodes' events
    are returned.
    """
    if n_nodes <= 0:
        raise ConfigurationError("n_nodes must be positive")
    if keep <= 0:
        raise ConfigurationError("keep must be positive")
    _check_fwq_shape(t_work, n_iterations)
    # Looked up before any row is charged: the cache holds one length,
    # so a previous length's tree is dropped before the dense rows peak.
    tree = _pairwise_tree(n_iterations)
    totals = np.empty(n_nodes)
    maxima = np.empty(n_nodes)
    events = []
    sparse = []
    row = np.full(n_iterations, t_work, dtype=float)
    for node, (idx, durations) in enumerate(
            _node_events(sources, t_work, n_iterations, n_nodes, rng)):
        events.append((idx, durations))
        if len(idx) <= _SPARSE_DENSITY * n_iterations:
            sparse.append(node)
            continue
        np.add.at(row, idx, durations)
        totals[node] = row.sum()
        # Durations are non-negative, so no charged slot is below
        # t_work: the row's maximum is among the charged slots.
        maxima[node] = row[idx].max()
        row[idx] = t_work  # uncharge the row for the next node
    if sparse:
        keys = np.concatenate([events[node][0] + i * n_iterations
                               for i, node in enumerate(sparse)])
        charged, inverse = np.unique(keys, return_inverse=True)
        lengths = np.full(len(charged), t_work, dtype=float)
        np.add.at(lengths, inverse,
                  np.concatenate([events[node][1] for node in sparse]))
        totals[sparse] = _pairwise_row_sums(tree, charged, lengths,
                                            len(sparse), t_work)
        peaks = np.full(len(sparse), t_work)
        np.maximum.at(peaks, charged // n_iterations, lengths)
        maxima[sparse] = peaks
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
