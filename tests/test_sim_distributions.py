"""Distributions: means, bounds, survival/quantile consistency.

Includes hypothesis property tests: survival and quantile must be
mutually consistent for every distribution, since the at-scale tail
model (Figure 4) and the barrier-delay sampler both rely on them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import distributions
from repro.sim.distributions import (
    Fixed,
    LogNormalCapped,
    Pareto,
    TruncatedExponential,
    Uniform,
)

DISTS = [
    Fixed(5e-5),
    Uniform(2e-5, 9e-5),
    TruncatedExponential(scale=3e-5, cap=2.6e-4),
    LogNormalCapped(median=2.2e-3, sigma=1.1, cap=2e-2),
    Pareto(lo=6e-5, hi=1.75e-2, alpha=2.2),
]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
def test_samples_within_bounds(dist, rng):
    xs = dist.sample(rng, 20_000)
    assert xs.min() >= 0.0
    assert xs.max() <= dist.upper + 1e-15


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
def test_empirical_mean_matches_analytic(dist, rng):
    xs = dist.sample(rng, 200_000)
    assert xs.mean() == pytest.approx(dist.mean, rel=0.05)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
def test_survival_matches_empirical_tail(dist, rng):
    xs = dist.sample(rng, 200_000)
    for q in (0.25, 0.5, 0.9):
        x = float(np.quantile(xs, q))
        emp_sf = float((xs > x).mean())
        assert float(dist.survival(x)) == pytest.approx(emp_sf, abs=0.02)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
def test_survival_is_monotone_and_bounded(dist):
    xs = np.linspace(0.0, dist.upper * 1.1, 500)
    sf = dist.survival(xs)
    assert np.all(sf <= 1.0 + 1e-12) and np.all(sf >= 0.0)
    assert np.all(np.diff(sf) <= 1e-12)
    assert float(dist.survival(dist.upper)) == 0.0


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
def test_quantile_survival_roundtrip(dist):
    for q in (0.01, 0.3, 0.7, 0.99, 0.99999):
        x = float(dist.quantile(q))
        # survival(quantile(q)) <= 1-q <= survival(quantile(q) - eps)
        assert float(dist.survival(x)) <= (1 - q) + 1e-9
        if x > 0 and not isinstance(dist, Fixed):
            assert float(dist.survival(x * (1 - 1e-9))) >= (1 - q) - 1e-6


def test_lognormal_binds_the_scipy_ufuncs_on_first_use():
    from scipy.special import ndtr, ndtri

    dist = LogNormalCapped(median=2.2e-3, sigma=1.1, cap=2e-2)
    q = np.array([0.01, 0.3, 0.7, 0.99])
    first = dist.quantile(q)
    assert distributions.ndtr is ndtr and distributions.ndtri is ndtri
    assert np.array_equal(first, dist.quantile(q))
    assert np.array_equal(first, np.minimum(2.2e-3 * np.exp(1.1 * ndtri(q)),
                                            2e-2))


def test_sample_max_matches_direct_max(rng):
    dist = TruncatedExponential(scale=3e-5, cap=2.6e-4)
    m = 50
    n = 20_000
    direct = dist.sample(rng, n * m).reshape(n, m).max(axis=1)
    via_counts = dist.sample_max(rng, np.full(n, m))
    assert via_counts.mean() == pytest.approx(direct.mean(), rel=0.02)


def test_sample_max_zero_counts_give_zero(rng):
    dist = Uniform(1e-5, 2e-5)
    out = dist.sample_max(rng, np.array([0, 3, 0]))
    assert out[0] == 0.0 and out[2] == 0.0 and out[1] > 0


def test_fixed_degenerate():
    d = Fixed(2.5e-6)
    assert d.mean == d.upper == 2.5e-6
    assert float(d.survival(2.4e-6)) == 1.0
    assert float(d.survival(2.5e-6)) == 0.0


def test_truncated_exponential_mean_below_scale():
    d = TruncatedExponential(scale=1e-3, cap=5e-4)  # heavily clipped
    assert d.mean < 5e-4
    assert d.mean == pytest.approx(1e-3 * (1 - np.exp(-0.5)), rel=1e-6)


def test_pareto_tail_index_controls_tail(rng):
    light = Pareto(lo=1e-5, hi=1e-2, alpha=3.0)
    heavy = Pareto(lo=1e-5, hi=1e-2, alpha=1.2)
    x = 1e-3
    assert float(heavy.survival(x)) > float(light.survival(x))


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Fixed(-1.0),
        lambda: Uniform(5.0, 1.0),
        lambda: TruncatedExponential(scale=0.0, cap=1.0),
        lambda: LogNormalCapped(median=0.0, sigma=1.0, cap=1.0),
        lambda: Pareto(lo=1.0, hi=1.0, alpha=1.0),
        lambda: Pareto(lo=1.0, hi=2.0, alpha=0.0),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


# --- hypothesis property tests -------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(1e-7, 1e-2),
    cap_mult=st.floats(0.1, 50.0),
    q=st.floats(0.0, 0.999999),
)
def test_truncexp_quantile_survival_consistent(scale, cap_mult, q):
    d = TruncatedExponential(scale=scale, cap=scale * cap_mult)
    x = float(d.quantile(q))
    assert 0.0 <= x <= d.cap
    assert float(d.survival(x)) <= (1 - q) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(1e-7, 1e-3),
    hi_mult=st.floats(1.01, 1e4),
    alpha=st.floats(0.2, 5.0),
    q=st.floats(0.0, 0.999999),
)
def test_pareto_quantile_in_support(lo, hi_mult, alpha, q):
    d = Pareto(lo=lo, hi=lo * hi_mult, alpha=alpha)
    x = float(d.quantile(q))
    assert lo - 1e-12 <= x <= d.hi * (1 + 1e-9)
    # quantile is monotone in q
    assert float(d.quantile(min(0.999999, q + 1e-4))) >= x - 1e-15


@settings(max_examples=40, deadline=None)
@given(
    median=st.floats(1e-6, 1e-2),
    sigma=st.floats(0.0, 2.5),
    cap_mult=st.floats(0.5, 100.0),
)
def test_lognormal_mean_between_zero_and_cap(median, sigma, cap_mult):
    d = LogNormalCapped(median=median, sigma=sigma, cap=median * cap_mult)
    assert 0.0 < d.mean <= d.cap + 1e-12
