"""FWQ benchmark: configuration, metrics, MPI extension."""

import numpy as np
import pytest

from repro.apps.fwq import (
    DEFAULT_QUANTUM,
    FwqConfig,
    run_fwq,
    run_fwq_on,
    run_mpi_fwq,
)
from repro.errors import ConfigurationError
from repro.noise.source import NoiseSource
from repro.sim.distributions import Fixed
from repro.units import us


def test_default_quantum_matches_paper():
    # ~6.5 ms, "the largest value we could configure below 10ms".
    assert DEFAULT_QUANTUM == pytest.approx(6.5e-3)
    cfg = FwqConfig()
    assert cfg.quantum < 10e-3


def test_quantum_above_10ms_rejected():
    with pytest.raises(ConfigurationError):
        FwqConfig(quantum=12e-3)
    with pytest.raises(ConfigurationError):
        FwqConfig(duration=0.0)
    with pytest.raises(ConfigurationError):
        FwqConfig(repeats=0)


def test_iterations_per_run():
    cfg = FwqConfig(quantum=6.5e-3, duration=360.0)
    assert cfg.iterations_per_run == int(360.0 / 6.5e-3)


def test_run_fwq_metrics(rng):
    src = NoiseSource("x", interval=0.05, duration=Fixed(us(100)))
    result = run_fwq([src], FwqConfig(duration=30.0), rng)
    # The max is a whole number of stacked 100 us events (several can
    # land in one quantum).
    n_events = result.max_noise_length / us(100)
    assert n_events == pytest.approx(round(n_events), abs=1e-6)
    assert 1 <= round(n_events) <= 4
    # duty = 100us / 0.05s = 2e-3.
    assert result.noise_rate == pytest.approx(2e-3, rel=0.2)
    assert result.noise_lengths.min() == 0.0


def test_repeats_concatenate(rng):
    cfg = FwqConfig(duration=5.0, repeats=3)
    result = run_fwq([], cfg, rng)
    assert len(result.iteration_lengths) == 3 * cfg.iterations_per_run


def test_run_fwq_on_kernel(fugaku_linux, rng):
    result = run_fwq_on(fugaku_linux, FwqConfig(duration=60.0), rng)
    # Fully tuned: only sar; max noise bounded by its burst cap (two
    # events can stack in one quantum, rarely).
    assert result.max_noise_length <= 2 * 50.44e-6
    assert result.noise_rate == pytest.approx(3.79e-6, rel=0.5)


def test_cdf_is_monotone(rng):
    src = NoiseSource("x", interval=0.05, duration=Fixed(us(100)))
    result = run_fwq([src], FwqConfig(duration=30.0), rng)
    lengths, probs = result.cdf(n_points=50)
    assert np.all(np.diff(lengths) >= 0)
    assert np.all(np.diff(probs) >= 0)
    assert probs[-1] == pytest.approx(1.0)


def test_mpi_fwq_keeps_worst_nodes(fugaku_linux, rng):
    cfg = FwqConfig(duration=10.0)
    result = run_mpi_fwq(fugaku_linux, n_nodes=64, config=cfg, rng=rng,
                         keep_worst=8, max_explicit_nodes=32)
    assert result.node_lengths.shape[0] == 8
    assert result.total_samples_represented == pytest.approx(
        64 * 48 * cfg.iterations_per_run)
    pooled = result.pooled()
    assert pooled.iteration_lengths.ndim == 1


def test_mpi_fwq_caps_explicit_nodes(fugaku_mckernel, rng):
    cfg = FwqConfig(duration=5.0)
    result = run_mpi_fwq(fugaku_mckernel, n_nodes=100000, config=cfg,
                         rng=rng, keep_worst=100, max_explicit_nodes=16)
    assert result.node_lengths.shape[0] == 16
    with pytest.raises(ConfigurationError):
        run_mpi_fwq(fugaku_mckernel, n_nodes=0, config=cfg, rng=rng)
    # Bad sizes are rejected at entry, under the caller's own name,
    # before any event is drawn.
    state = rng.bit_generator.state
    for bad in ({"keep_worst": 0}, {"max_explicit_nodes": 0}):
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            run_mpi_fwq(fugaku_mckernel, n_nodes=64, config=cfg, rng=rng,
                        **bad)
    assert rng.bit_generator.state == state


def test_mckernel_fwq_cleaner_than_linux(fugaku_linux, fugaku_mckernel,
                                         rng):
    cfg = FwqConfig(duration=60.0)
    linux = run_fwq_on(fugaku_linux, cfg, rng)
    mck = run_fwq_on(fugaku_mckernel, cfg, rng)
    assert mck.noise_rate <= linux.noise_rate


# --- FTQ (Fixed Time Quanta) -------------------------------------------------

def test_ftq_noiseless_full_capacity(rng):
    from repro.apps.fwq import run_ftq

    result = run_ftq([], rng, window=1e-3, duration=1.0, unit_cost=1e-6)
    assert result.max_units == 1000
    assert result.lost_work_fraction == 0.0
    assert result.noise_windows() == 0


def test_ftq_noise_steals_work(rng):
    from repro.apps.fwq import run_ftq

    src = NoiseSource("x", interval=0.01, duration=Fixed(us(200)))
    result = run_ftq([src], rng, window=1e-3, duration=10.0,
                     unit_cost=1e-6)
    # duty cycle 2e-2: about 2% of capacity lost.
    assert result.lost_work_fraction == pytest.approx(0.02, abs=0.01)
    assert result.noise_windows() > 0


def test_ftq_window_loss_bounded(rng):
    from repro.apps.fwq import run_ftq

    # A noise burst longer than the window cannot make work negative.
    src = NoiseSource("big", interval=0.05, duration=Fixed(5e-3))
    result = run_ftq([src], rng, window=1e-3, duration=5.0, unit_cost=1e-6)
    assert result.work_units.min() >= 0


def test_ftq_validation(rng):
    from repro.apps.fwq import run_ftq

    with pytest.raises(ConfigurationError):
        run_ftq([], rng, window=0.0)
