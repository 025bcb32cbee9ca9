"""Eq. 1, Eq. 2 and the iteration-length mixture (at-scale tails)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fwq import DEFAULT_QUANTUM, FwqConfig
from repro.errors import ConfigurationError
from repro.hardware.machines import NODES_PER_RACK
from repro.noise.analytic import (
    IterationMixture,
    NoiseGroup,
    eq1_delay,
    groups_from_sources,
    max_noise_length,
    noise_lengths,
    noise_rate,
)
from repro.noise.source import NoiseSource, Occurrence
from repro.platform import build, get_platform
from repro.sim.distributions import Fixed, TruncatedExponential
from repro.units import ms, us


# --- Eq. 1 ----------------------------------------------------------------

def test_paper_worked_example():
    """N=100k, S=250us, L=1ms, I=500s -> ~20% (§2)."""
    delay = eq1_delay([NoiseGroup(length=ms(1), interval=500.0)],
                      us(250), 100_000)
    assert delay == pytest.approx(0.20, abs=0.01)


def test_eq1_monotone_in_threads():
    g = [NoiseGroup(length=ms(1), interval=500.0)]
    d1 = eq1_delay(g, us(250), 1_000)
    d2 = eq1_delay(g, us(250), 100_000)
    d3 = eq1_delay(g, us(250), 10_000_000)
    assert d1 < d2 < d3
    # Saturates at L/S once the hit probability reaches 1.
    assert d3 <= ms(1) / us(250) + 1e-9


def test_eq1_takes_max_over_groups():
    frequent_small = NoiseGroup(length=us(10), interval=0.01)
    rare_large = NoiseGroup(length=ms(20), interval=600.0)
    combined = eq1_delay([frequent_small, rare_large], ms(1), 7_630_848)
    # At full-Fugaku N both hit probabilities are ~1; the large noise
    # dominates the max.
    assert combined == pytest.approx(ms(20) / ms(1), rel=0.01)


def test_eq1_clamps_faster_than_interval_noise():
    g = [NoiseGroup(length=us(5), interval=us(100))]
    # S > I: every interval hit with probability 1.
    assert eq1_delay(g, ms(1), 1) == pytest.approx(us(5) / ms(1))


def test_eq1_no_underflow_at_extreme_n():
    g = [NoiseGroup(length=ms(1), interval=600.0)]
    d = eq1_delay(g, us(250), 7_630_848)
    assert 0 < d <= ms(1) / us(250)


def test_eq1_validation():
    with pytest.raises(ConfigurationError):
        eq1_delay([], 0.0, 10)
    with pytest.raises(ConfigurationError):
        eq1_delay([], 1.0, 0)
    with pytest.raises(ConfigurationError):
        NoiseGroup(length=-1.0, interval=1.0)


def test_groups_from_sources_uses_max_length():
    src = NoiseSource("x", interval=10.0,
                      duration=TruncatedExponential(scale=us(30), cap=us(266)))
    (group,) = groups_from_sources([src])
    assert group.length == pytest.approx(us(266))
    assert group.interval == 10.0


# --- Eq. 2 and Fig. 3 metrics ------------------------------------------------

def test_noise_rate_matches_duty_cycle_analytically():
    # Construction: every 10th iteration delayed by 65 us on a 6.5 ms
    # quantum => rate = 65us/10/6.5ms = 1e-3.
    t = np.full(1000, 6.5e-3)
    t[::10] += 65e-6
    assert noise_rate(t) == pytest.approx(1e-3, rel=1e-6)


def test_max_noise_length_is_range():
    t = np.array([6.5e-3, 6.5e-3 + 50.44e-6, 6.5e-3 + 10e-6])
    assert max_noise_length(t) == pytest.approx(50.44e-6)


def test_noise_lengths_subtracts_min():
    t = np.array([1.0, 1.5, 1.25])
    assert noise_lengths(t) == pytest.approx([0.0, 0.5, 0.25])


def test_metrics_validation():
    with pytest.raises(ConfigurationError):
        noise_rate(np.array([]))
    with pytest.raises(ConfigurationError):
        noise_rate(np.array([0.0]))
    with pytest.raises(ConfigurationError):
        max_noise_length(np.array([]))


# --- iteration mixture --------------------------------------------------------

def _mixture():
    sources = [
        NoiseSource("sar", interval=10.0,
                    duration=TruncatedExponential(scale=us(38), cap=us(50))),
        NoiseSource("daemons", interval=3.85,
                    duration=TruncatedExponential(scale=ms(2), cap=ms(20))),
    ]
    return IterationMixture(sources, t_work=6.5e-3)


def test_survival_at_quantum_is_hit_probability():
    m = _mixture()
    sf = float(m.survival(6.5e-3))
    expected = 1.0 - np.prod(1.0 - m._probs)
    assert sf == pytest.approx(expected, rel=1e-9)
    assert float(m.survival(6.4e-3)) == 1.0  # below quantum: certain


def test_survival_matches_monte_carlo(rng):
    from repro.noise.sampler import fwq_iteration_lengths

    m = _mixture()
    lengths = fwq_iteration_lengths(m.sources, 6.5e-3, 400_000, rng)
    for x in (6.6e-3, 8.0e-3, 16.0e-3):
        emp = float((lengths > x).mean())
        assert float(m.survival(x)) == pytest.approx(emp, abs=3e-4)


def test_expected_max_grows_with_pool_size():
    m = _mixture()
    small = m.expected_max(1e4)
    large = m.expected_max(1e8)
    huge = m.expected_max(4e11)  # full-Fugaku pool
    assert small < large <= huge
    assert huge <= 6.5e-3 + us(50) + ms(20) + 1e-9


def test_quantile_monotone_and_bounded():
    m = _mixture()
    q1, q2 = m.quantile(0.9), m.quantile(0.9999)
    assert 6.5e-3 <= q1 <= q2


def _quantile_200_steps(mixture, q):
    """The fixed-length bisection :meth:`IterationMixture.quantile`
    ran before it learned to stop at its fixed point."""
    target = 1.0 - q
    lo = mixture.t_work
    hi = mixture.t_work + max(
        (s.max_length for s in mixture.sources), default=0.0)
    if hi <= lo or float(mixture.survival(lo)) <= target:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(mixture.survival(mid)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fig4_pools():
    """Every pool size Figure 4 evaluates, fast and full mode."""
    machine = build(get_platform("fugaku-production")).machine
    cores = [1024 * 256, machine.n_nodes * 48, 24 * NODES_PER_RACK * 48]
    iterations = [FwqConfig(duration=d, repeats=r).iterations_per_run * r
                  for d, r in ((60.0, 2), (360.0, 10))]
    return [float(c) * i for c in cores for i in iterations]


@pytest.mark.parametrize("platform", [
    "ofp-default", "ofp-mckernel", "fugaku-production", "fugaku-mckernel",
])
def test_quantile_early_exit_matches_200_step_bisection(platform):
    sources = build(get_platform(platform)).noise_sources()
    mixture = IterationMixture(sources, DEFAULT_QUANTUM)
    qs = [0.5, 0.999, 0.999999] + [1.0 - 1.0 / p for p in _fig4_pools()]
    for q in qs:
        assert mixture.quantile(q) == _quantile_200_steps(mixture, q), q


def test_cdf_curve_shape():
    m = _mixture()
    xs, cdf = m.cdf_curve(n_points=64, n_samples=1e6)
    assert len(xs) == 64
    assert np.all(np.diff(cdf) >= -1e-12)
    assert xs[0] == pytest.approx(6.5e-3)


def test_mean_overhead_is_sum_of_duties_times_twork():
    m = _mixture()
    expected = sum(p * s.duration.mean
                   for p, s in zip(m._probs, m.sources))
    assert m.mean_overhead() == pytest.approx(expected)


def test_mixture_validation():
    with pytest.raises(ConfigurationError):
        IterationMixture([], t_work=0.0)
    m = _mixture()
    with pytest.raises(ConfigurationError):
        m.quantile(1.0)
    with pytest.raises(ConfigurationError):
        m.expected_max(0.5)
    with pytest.raises(ConfigurationError):
        m.cdf_curve(n_points=1)


def test_empty_mixture_is_degenerate():
    m = IterationMixture([], t_work=6.5e-3)
    assert float(m.survival(6.5e-3)) == 0.0
    assert m.expected_max(1e12) == pytest.approx(6.5e-3)


# --- hypothesis: Eq.1 properties -----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    length=st.floats(1e-6, 1e-1),
    interval=st.floats(1e-3, 1e4),
    sync=st.floats(1e-5, 1e-1),
    n=st.integers(1, 10_000_000),
)
def test_eq1_bounded_by_saturation(length, interval, sync, n):
    d = eq1_delay([NoiseGroup(length=length, interval=interval)], sync, n)
    assert 0.0 <= d <= length / sync + 1e-9
