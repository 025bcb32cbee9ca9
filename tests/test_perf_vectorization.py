"""Bit-identity of the vectorized hot paths vs their loop references.

Every vectorization in this PR claims *exact* equivalence with the
historical per-item loop it replaced.  These tests hold each claim to
the bit: the reference loops below are transcriptions of the
pre-vectorization implementations (see git history of the modules under
test), and every comparison is ``==`` on floats — never ``approx``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import WorkloadProfile
import repro.apps.fwq as fwq_mod
from repro.apps.fwq import FwqConfig, FtqResult, run_fwq, run_mpi_fwq
from repro.errors import ConfigurationError
from repro.noise.analytic import max_noise_length, noise_rate
from repro.noise.catalog import noise_sources_for
from repro.noise.sampler import (
    BarrierDelaySampler,
    _sparse_pairwise_sum,
    fwq_iteration_lengths,
    multi_core_fwq,
    pooled_fwq_stats,
    worst_nodes,
)
from repro.noise.source import NoiseSource, Occurrence
from repro.noise.spectral import SpectralPeak, find_periodic_noise, noise_spectrum
from repro.perf.context import perf_context
from repro.perf.executor import RunCell, adaptive_fields
from repro.runtime import runner as runner_mod
from repro.runtime.nodesim import NoisyCore
from repro.runtime.runner import AppRunner, compare, t_critical
from repro.sim.distributions import Fixed, TruncatedExponential
from repro.units import us


def _toy_profile(**kw):
    defaults = dict(
        name="toy", description="", scaling="weak", reference_nodes=16,
        sync_interval=5e-3, iterations=50, variability=0.1,
    )
    defaults.update(kw)
    return WorkloadProfile(**defaults)


def _mixed_sources():
    return [
        NoiseSource("tick", interval=1e-3, duration=Fixed(us(2)),
                    occurrence=Occurrence.PERIODIC),
        NoiseSource("daemon", interval=0.5,
                    duration=TruncatedExponential(scale=us(200),
                                                  cap=us(900))),
        NoiseSource("rare", interval=50.0, duration=Fixed(us(500))),
    ]


def _rngs(n, tag=0):
    return [np.random.default_rng((tag, t)) for t in range(n)]


# -- BarrierDelaySampler.sample_batch ---------------------------------


@pytest.mark.parametrize("sources", [
    pytest.param(_mixed_sources(), id="mixed-catalogue"),
    pytest.param(_mixed_sources()[:1], id="single-source"),
], )
def test_sample_batch_bitwise_matches_sample_loop(sources):
    sampler = BarrierDelaySampler(sources, sync_interval=5e-3,
                                  n_threads=4096)
    batch = sampler.sample_batch(64, _rngs(8))
    looped = np.stack([sampler.sample(64, rng) for rng in _rngs(8)])
    assert batch.shape == (8, 64)
    assert batch.tobytes() == looped.tobytes()


def test_sample_batch_matches_on_linux_catalogue(fugaku_linux):
    sources = noise_sources_for(fugaku_linux)
    assert len(sources) > 1  # the interesting multi-source case
    sampler = BarrierDelaySampler(sources, sync_interval=5e-3,
                                  n_threads=48 * 256)
    batch = sampler.sample_batch(32, _rngs(5, tag=7))
    looped = np.stack([sampler.sample(32, rng) for rng in _rngs(5, tag=7)])
    assert batch.tobytes() == looped.tobytes()


def test_sample_batch_leaves_rng_streams_untouched():
    """Each trial generator ends in the exact state the serial path
    leaves it in — the property that makes batches composable."""
    sampler = BarrierDelaySampler(_mixed_sources(), sync_interval=5e-3,
                                  n_threads=1024)
    batch_rngs, loop_rngs = _rngs(6), _rngs(6)
    sampler.sample_batch(48, batch_rngs)
    for rng in loop_rngs:
        sampler.sample(48, rng)
    for a, b in zip(batch_rngs, loop_rngs):
        assert a.bit_generator.state == b.bit_generator.state


def test_sample_batch_edge_cases():
    sampler = BarrierDelaySampler(_mixed_sources(), sync_interval=5e-3,
                                  n_threads=16)
    assert sampler.sample_batch(10, []).shape == (0, 10)
    with pytest.raises(ConfigurationError):
        sampler.sample_batch(0, _rngs(2))


# -- AppRunner trial batching -----------------------------------------


@pytest.mark.parametrize("os_fixture", ["fugaku_linux", "fugaku_mckernel"])
def test_run_batched_equals_run_looped(request, fugaku_machine, os_fixture):
    os_instance = request.getfixturevalue(os_fixture)
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=3)
    batched = runner.run(os_instance, 256, n_runs=6, batch_trials=True)
    looped = runner.run(os_instance, 256, n_runs=6, batch_trials=False)
    assert batched.times == looped.times
    assert batched == looped  # full dataclass, breakdown included


def test_trial_batches_compose(fugaku_machine, fugaku_linux):
    """Trial k depends only on coordinate k, so a 6-trial run is a
    bitwise superset of the 3-trial run — the invariant adaptive
    stopping builds on."""
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=1)
    small = runner.run(fugaku_linux, 128, n_runs=3)
    big = runner.run(fugaku_linux, 128, n_runs=6)
    assert big.times[:3] == small.times


# -- adaptive early stopping ------------------------------------------


def test_run_adaptive_stops_at_first_satisfied_batch(fugaku_machine,
                                                     fugaku_linux):
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=2)
    # A huge tolerance is met by the very first batch.
    loose = runner.run_adaptive(fugaku_linux, 128, n_runs=3,
                                target_ci=10.0)
    assert loose.times == runner.run(fugaku_linux, 128, n_runs=3).times


def test_run_adaptive_caps_at_max_runs(fugaku_machine, fugaku_linux):
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=2)
    # An impossible tolerance draws exactly max_runs trials, and the
    # trials are the same stream fixed-count runs would draw.
    tight = runner.run_adaptive(fugaku_linux, 128, n_runs=3,
                                target_ci=1e-12, max_runs=8)
    assert len(tight.times) == 8
    assert tight.times == runner.run(fugaku_linux, 128, n_runs=8).times


def test_run_adaptive_validation(fugaku_machine, fugaku_linux):
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=0)
    with pytest.raises(ConfigurationError):
        runner.run_adaptive(fugaku_linux, 128, target_ci=0.0)
    with pytest.raises(ConfigurationError):
        runner.run_adaptive(fugaku_linux, 128, n_runs=4, max_runs=2)


def test_adaptive_sweep_identical_across_jobs(fugaku_machine, fugaku_linux,
                                              fugaku_mckernel):
    """Early stopping must not break the executor's determinism
    guarantee: jobs=1 and jobs=4 draw identical trial counts and
    identical bits, because stopping depends only on each cell's own
    streams."""
    profile = _toy_profile()
    kwargs = dict(node_counts=[16, 64], n_runs=2, seed=0)
    with perf_context(jobs=1, target_ci=0.05, max_adaptive_runs=16):
        serial = compare(fugaku_machine, profile, fugaku_linux,
                         fugaku_mckernel, **kwargs)
    with perf_context(jobs=4, target_ci=0.05, max_adaptive_runs=16):
        parallel = compare(fugaku_machine, profile, fugaku_linux,
                           fugaku_mckernel, **kwargs)
    assert serial == parallel
    # And the knob did engage: some cell drew more than the floor.
    assert any(len(r.times) >= 2 for c in serial
               for r in (c.linux, c.mckernel))


def test_adaptive_fields_reflect_ambient_context():
    assert adaptive_fields() == {}
    with perf_context(target_ci=0.1, max_adaptive_runs=32):
        assert adaptive_fields() == {"target_ci": 0.1,
                                     "max_adaptive_runs": 32}
    assert adaptive_fields() == {}


def test_cell_key_untouched_unless_adaptive(fugaku_machine, fugaku_linux):
    """Default-config cache keys must not move when the knob is off —
    entries written before the knob existed stay valid."""
    profile = _toy_profile()
    plain = RunCell(fugaku_machine, profile, fugaku_linux, 16, 3, 0)
    off = RunCell(fugaku_machine, profile, fugaku_linux, 16, 3, 0,
                  target_ci=None, max_adaptive_runs=99)
    on = RunCell(fugaku_machine, profile, fugaku_linux, 16, 3, 0,
                 target_ci=0.05)
    assert plain.key() == off.key()  # max_adaptive_runs inert when off
    assert on.key() != plain.key()
    tighter = RunCell(fugaku_machine, profile, fugaku_linux, 16, 3, 0,
                      target_ci=0.05, max_adaptive_runs=32)
    assert tighter.key() != on.key()


# -- t_critical -------------------------------------------------------


def test_t_critical_memoizes(monkeypatch):
    monkeypatch.setattr(runner_mod, "_T_CRIT_MEMO", {})
    first = t_critical(7)
    assert runner_mod._T_CRIT_MEMO == {7: first}
    # Second call must come from the memo: poison the import path.
    monkeypatch.setitem(sys.modules, "scipy", None)
    assert t_critical(7) == first


def test_t_critical_scipy_free_fallback(monkeypatch):
    monkeypatch.setattr(runner_mod, "_T_CRIT_MEMO", {})
    monkeypatch.setitem(sys.modules, "scipy", None)
    assert t_critical(5) == runner_mod._T_TABLE[5]
    assert t_critical(30) == runner_mod._T_TABLE[30]
    assert t_critical(200) == runner_mod._T_NORMAL_LIMIT


def test_t_critical_table_matches_scipy_when_available():
    scipy = pytest.importorskip("scipy")
    for df in (1, 5, 30):
        assert runner_mod._T_TABLE[df] == pytest.approx(
            float(scipy.stats.t.ppf(0.975, df)), abs=5e-4)


def test_t_critical_rejects_bad_df():
    with pytest.raises(ConfigurationError):
        t_critical(0)


# -- FWQ batching -----------------------------------------------------


def test_run_fwq_bitwise_matches_per_repeat_loop():
    sources = _mixed_sources()
    config = FwqConfig(quantum=6.5e-3, duration=2.0, repeats=4)
    batched = run_fwq(sources, config, np.random.default_rng(11))
    # Historical implementation: one fwq_iteration_lengths call per
    # repeat on the shared stream, pooled with concatenate.
    rng = np.random.default_rng(11)
    runs = [fwq_iteration_lengths(sources, config.quantum,
                                  config.iterations_per_run, rng)
            for _ in range(config.repeats)]
    assert batched.iteration_lengths.tobytes() == \
        np.concatenate(runs).tobytes()


def _catalogue(os_instance):
    return noise_sources_for(os_instance, include_stragglers=True)


def _rare_sources(_os_instance):
    # Half the nodes draw no event at all, so their totals tie exactly
    # and keep=8 of 12 has to split the tie the way argpartition does.
    return [NoiseSource("rare", interval=4.0, duration=Fixed(us(500)))]


@pytest.mark.parametrize("sources, nodes, keep, duration", [
    pytest.param(_catalogue, 8, 3, 1.0, id="keep-below-nodes"),
    pytest.param(_catalogue, 8, 8, 1.0, id="keep-equals-nodes"),
    pytest.param(_catalogue, 8, 20, 1.0, id="keep-above-nodes"),
    pytest.param(_catalogue, 8, 1, 1.0, id="keep-one"),
    pytest.param(lambda _os: [], 6, 4, 1.0, id="no-sources-all-tie"),
    pytest.param(_rare_sources, 12, 8, 1.0, id="eventless-nodes"),
    # 2 x 9,230 iterations: not a multiple of 128, and longer than
    # numpy's reduction buffer, so the row sums take the blocked path.
    pytest.param(_catalogue, 5, 2, 60.0, id="long-unaligned-rows"),
])
def test_run_mpi_fwq_bitwise_matches_per_node_loop(
        fugaku_linux, monkeypatch, sources, nodes, keep, duration):
    catalogue = sources(fugaku_linux)
    monkeypatch.setattr(fwq_mod, "noise_sources_for",
                        lambda *_a, **_k: catalogue)
    config = FwqConfig(quantum=6.5e-3, duration=duration, repeats=2)
    streamed = run_mpi_fwq(fugaku_linux, 512, config,
                           np.random.default_rng(4), keep_worst=keep,
                           max_explicit_nodes=nodes)
    # Reference: the dense (nodes, iterations) timeline, then the
    # in-situ worst-node selection over it.
    n_iter = config.iterations_per_run * config.repeats
    per_node = multi_core_fwq(catalogue, config.quantum, n_iter, nodes,
                              np.random.default_rng(4))
    kept = worst_nodes(per_node, keep)
    assert streamed.worst.totals.tobytes() == \
        per_node.sum(axis=1).tobytes()
    assert streamed.max_length == streamed.node_lengths.max()
    assert streamed.worst.maxima.tobytes() == kept.max(axis=1).tobytes()
    assert streamed.node_lengths.tobytes() == kept.tobytes()


# -- Table 2's pooled statistics from the charged slots ----------------


@settings(max_examples=120, deadline=None)
@given(
    n=st.one_of(
        st.integers(0, 300),
        st.sampled_from([127, 128, 129, 136, 1_023, 553_841, 553_846,
                         1_000_000]),
        st.integers(0, 1_000_000),
    ),
    density=st.one_of(st.sampled_from([0.0, 1.0]),
                      st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_pairwise_sum_bitwise_matches_add_reduce(n, density, seed):
    """The replayed tree equals numpy's own ``add.reduce`` of the dense
    array: a numpy release that changes its summation tree fails here
    instead of silently moving Table 2's digits."""
    rng = np.random.default_rng(seed)
    positions = np.flatnonzero(rng.random(n) < density)
    # Signs and magnitudes spread over 16 decades, so any change to the
    # order of the additions shows in the rounding.  (+ 0.0 turns a
    # -0.0 into +0.0; the sum's contract excludes -0.0 values.)
    values = (rng.standard_normal(len(positions))
              * 10.0 ** rng.integers(-8, 8, len(positions))) + 0.0
    dense = np.zeros(n)
    dense[positions] = values
    got = _sparse_pairwise_sum(positions, values, n)
    assert np.float64(got).tobytes() == np.add.reduce(dense).tobytes()


@pytest.mark.parametrize("sources, cores, every_slot_charged", [
    pytest.param(_catalogue, 3, False, id="fugaku-catalogue"),
    # A 1 ms tick charges every 6.5 ms quantum, so t_min > t_work.
    pytest.param(lambda _os: _mixed_sources(), 2, True,
                 id="every-slot-charged"),
    pytest.param(lambda _os: [], 2, False, id="no-sources"),
])
def test_pooled_fwq_stats_bitwise_match_dense_series(
        fugaku_linux, sources, cores, every_slot_charged):
    catalogue = sources(fugaku_linux)
    # 9,231 iterations per core: no multiple of 8 or 128.
    shape = (catalogue, 6.5e-3, 9_231, cores)
    t_min, max_noise, rate = pooled_fwq_stats(*shape,
                                              np.random.default_rng(3))
    lengths = multi_core_fwq(*shape, np.random.default_rng(3)).ravel()
    assert (t_min > 6.5e-3) == every_slot_charged
    assert (max_noise > 0) == bool(catalogue)
    assert t_min == lengths.min()
    assert max_noise == max_noise_length(lengths)
    assert rate == noise_rate(lengths)


# -- spectral comb suppression ----------------------------------------


def _find_periodic_noise_loop(result, threshold=12.0, max_peaks=5):
    """Transcription of the pre-vectorization per-bin scan."""
    freqs, power = noise_spectrum(result)
    peak_power = float(power.max())
    if peak_power <= 0.0:
        return []
    floor = max(float(np.median(power)), peak_power * 1e-9)
    peaks = []
    suppressed = np.zeros(len(power), dtype=bool)
    for idx in range(len(power)):
        if len(peaks) >= max_peaks:
            break
        if suppressed[idx]:
            continue
        if power[idx] / floor < threshold:
            continue
        lo = max(0, idx - 2)
        hi = min(len(power), idx + 3)
        best = lo + int(np.argmax(power[lo:hi]))
        fundamental = freqs[best]
        peaks.append(SpectralPeak(
            frequency_hz=float(fundamental),
            period_s=float(1.0 / fundamental),
            power_ratio=float(power[best] / floor),
        ))
        k = 1
        while k * fundamental <= freqs[-1] + 1e-12:
            h = int(np.argmin(np.abs(freqs - k * fundamental)))
            suppressed[max(0, h - 2):h + 3] = True
            k += 1
    return peaks


def _comb_trace(rng):
    """An FTQ trace with two interleaved harmonic combs + rough floor."""
    n = 4096
    work = np.full(n, 1000.0)
    work[::40] -= 120.0   # 25 Hz comb at window=1ms
    work[::17] -= 60.0    # ~58.8 Hz comb, not bin-aligned
    work += rng.normal(0.0, 0.5, n)
    return FtqResult(window=1e-3, work_units=work)


def test_find_periodic_noise_matches_loop_reference():
    rng = np.random.default_rng(99)
    for trial in range(5):
        trace = _comb_trace(rng)
        assert find_periodic_noise(trace) == \
            _find_periodic_noise_loop(trace)


def test_find_periodic_noise_matches_loop_on_pure_comb():
    # No stochastic floor: exercises the peak_power*1e-9 floor bound
    # and full-comb suppression.
    n = 2048
    work = np.full(n, 1000.0)
    work[::32] -= 100.0
    trace = FtqResult(window=1e-3, work_units=work)
    vec = find_periodic_noise(trace)
    assert vec == _find_periodic_noise_loop(trace)
    assert len(vec) >= 1


# -- NoisyCore chunked event charging ---------------------------------


class _FixedEvents:
    """A NoiseSource stand-in with a pre-scripted event timeline."""

    def __init__(self, starts, durs):
        self._events = (np.asarray(starts, float), np.asarray(durs, float))

    def sample_events(self, horizon, rng):
        return self._events


def _loop_reference(starts, durs, calls):
    """Transcription of the pre-vectorization one-event-at-a-time walk."""
    cursor = 0
    out = []
    for t, work in calls:
        while cursor < len(starts) and starts[cursor] < t:
            cursor += 1
        wall_end = t + work
        i = cursor
        while i < len(starts) and starts[i] < wall_end:
            wall_end += durs[i]
            i += 1
        cursor = i
        out.append(wall_end - t)
    return out


@pytest.mark.parametrize("chunk", [2, 64])
def test_noisy_core_matches_event_loop(chunk, monkeypatch):
    # Dense, cascading events: charging one event pulls in the next.
    rng = np.random.default_rng(8)
    starts = np.sort(rng.uniform(0.0, 10.0, 400))
    durs = rng.uniform(0.005, 0.05, 400)
    core = NoisyCore([_FixedEvents(starts, durs)], horizon=10.0,
                     rng=np.random.default_rng(0))
    monkeypatch.setattr(NoisyCore, "_CHUNK", chunk)
    calls = [(0.0, 0.3), (0.5, 0.01), (0.9, 1.4), (4.0, 0.0),
             (4.2, 2.5), (8.0, 0.6), (9.5, 3.0)]
    expected = _loop_reference(core._starts, core._durs, calls)
    got = [core.work_duration(t, w) for t, w in calls]
    assert got == expected  # exact float equality, chunking included


def test_noisy_core_clean_timeline():
    core = NoisyCore([], horizon=1.0, rng=np.random.default_rng(0))
    assert core.work_duration(0.0, 0.25) == 0.25
    with pytest.raises(ConfigurationError):
        core.work_duration(0.5, -1.0)
