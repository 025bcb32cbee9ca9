"""Duration / interval distributions used by noise sources and cost models.

Each distribution is a small immutable object with:

* ``sample(rng, size)`` — vectorized draw returning an ``ndarray``;
* ``mean`` — analytic mean (used by the closed-form noise models);
* ``upper`` — the finite upper bound (used for "max noise length");
* ``survival(x)`` — P(X > x), vectorized, exact — this is what lets the
  Figure 4 tail be computed at full-machine sample counts (~4e11) where
  Monte Carlo cannot reach;
* ``quantile(q)`` — inverse CDF, vectorized — used to draw the *maximum*
  of m iid copies as ``quantile(u ** (1/m))`` without materialising m
  draws (the BSP barrier-delay sampler).

Only distributions actually needed by the paper's noise catalogue are
implemented; all are bounded because OS noise events have physical upper
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ndtri/ndtr are the raw ufuncs behind scipy.stats.norm.ppf/sf; calling
# them directly skips the rv_continuous argument plumbing (argsreduce,
# broadcasting, masking) that dominates small-array ppf calls on the
# Monte-Carlo hot path.  For arguments already inside the open unit
# interval the results are bit-identical to the norm frontend.
# ``scipy.special`` costs a quarter of a second to import, so the two
# stubs below rebind these module names to its ufuncs on first call:
# a process that never samples a lognormal never loads it, and every
# later call reaches the ufunc directly.
def _bind_normal() -> None:
    global ndtr, ndtri
    from scipy.special import ndtr, ndtri


def ndtr(x):
    _bind_normal()
    return ndtr(x)


def ndtri(q):
    _bind_normal()
    return ndtri(q)


class Distribution:
    """Base class; see module docstring for the contract."""

    mean: float
    upper: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def survival(self, x: np.ndarray | float) -> np.ndarray:
        raise NotImplementedError

    def quantile(self, q: np.ndarray | float) -> np.ndarray:
        raise NotImplementedError

    def sample_one(self, rng: np.random.Generator) -> float:
        return float(self.sample(rng, 1)[0])

    def sample_max(self, rng: np.random.Generator,
                   counts: np.ndarray) -> np.ndarray:
        """Vectorized draw of max(X_1..X_m) for each m in ``counts``
        (entries with m == 0 yield 0.0), via the inverse-CDF identity
        ``max of m iid ~ F^{-1}(U^{1/m})``."""
        counts = np.asarray(counts)
        out = np.zeros(counts.shape, dtype=float)
        pos = counts > 0
        if np.any(pos):
            u = rng.uniform(0.0, 1.0, int(pos.sum()))
            out[pos] = self.quantile(u ** (1.0 / counts[pos]))
        return out


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Fixed(Distribution):
    """Degenerate distribution: every draw equals ``value``."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"Fixed value must be >= 0, got {self.value}")

    @property
    def mean(self) -> float:  # type: ignore[override]
        return self.value

    @property
    def upper(self) -> float:  # type: ignore[override]
        return self.value

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def survival(self, x) -> np.ndarray:
        return np.where(_as_array(x) < self.value, 1.0, 0.0)

    def quantile(self, q) -> np.ndarray:
        return np.full(_as_array(q).shape, self.value)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def mean(self) -> float:  # type: ignore[override]
        return 0.5 * (self.lo + self.hi)

    @property
    def upper(self) -> float:  # type: ignore[override]
        return self.hi

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)

    def survival(self, x) -> np.ndarray:
        x = _as_array(x)
        if self.hi == self.lo:
            return np.where(x < self.lo, 1.0, 0.0)
        return np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, q) -> np.ndarray:
        return self.lo + _as_array(q) * (self.hi - self.lo)


@dataclass(frozen=True)
class TruncatedExponential(Distribution):
    """Exponential with mean ``scale`` clipped at ``cap``.

    Models bursty kernel-task durations: most events are short, the tail
    is bounded by the longest burst the paper observed for that source.
    Clipping (rather than rejection) puts an atom at ``cap``, matching
    how "max noise length" is reported: the cap IS the observed maximum.
    """

    scale: float
    cap: float

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.cap <= 0:
            raise ValueError("scale and cap must be > 0")

    @property
    def mean(self) -> float:  # type: ignore[override]
        # E[min(X, cap)] for X ~ Exp(scale) = scale * (1 - exp(-cap/scale))
        return self.scale * (1.0 - np.exp(-self.cap / self.scale))

    @property
    def upper(self) -> float:  # type: ignore[override]
        return self.cap

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.minimum(rng.exponential(self.scale, size), self.cap)

    def survival(self, x) -> np.ndarray:
        x = _as_array(x)
        return np.where(x < self.cap, np.exp(-np.maximum(x, 0.0) / self.scale), 0.0)

    def quantile(self, q) -> np.ndarray:
        q = np.clip(_as_array(q), 0.0, 1.0 - 1e-16)
        return np.minimum(-self.scale * np.log1p(-q), self.cap)


@dataclass(frozen=True)
class LogNormalCapped(Distribution):
    """Log-normal (by median and sigma of the log) clipped at ``cap``.

    Used for daemon wake-up bursts whose durations span orders of
    magnitude (scheduler latency vs. a full housekeeping pass).
    """

    median: float
    sigma: float
    cap: float

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0 or self.cap <= 0:
            raise ValueError("median, cap must be > 0 and sigma >= 0")

    @property
    def mean(self) -> float:  # type: ignore[override]
        # Clipped mean has no neat closed form; deterministic quadrature
        # over the quantile function is accurate and cheap.
        q = (np.arange(1, 4097) - 0.5) / 4096
        x = self.median * np.exp(self.sigma * ndtri(q))
        return float(np.minimum(x, self.cap).mean())

    @property
    def upper(self) -> float:  # type: ignore[override]
        return self.cap

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        draws = self.median * np.exp(self.sigma * rng.standard_normal(size))
        return np.minimum(draws, self.cap)

    def survival(self, x) -> np.ndarray:
        x = _as_array(x)
        with np.errstate(divide="ignore"):
            z = np.where(x > 0, np.log(np.maximum(x, 1e-300) / self.median), -np.inf)
        if self.sigma == 0:
            base = np.where(x < self.median, 1.0, 0.0)
        else:
            base = ndtr(-(z / self.sigma))
        return np.where(x < self.cap, base, 0.0)

    def quantile(self, q) -> np.ndarray:
        q = np.clip(_as_array(q), 1e-16, 1.0 - 1e-16)
        if self.sigma == 0:
            raw = np.full(q.shape, self.median)
        else:
            raw = self.median * np.exp(self.sigma * ndtri(q))
        return np.minimum(raw, self.cap)


@dataclass(frozen=True)
class Pareto(Distribution):
    """Bounded Pareto on ``[lo, hi]`` with tail index ``alpha``.

    Heavy-tailed but bounded; used for the OFP "moderately tuned"
    environment where occasional very long interruptions were observed
    (up to ~24 ms against a 6.5 ms quantum, Fig. 4a).
    """

    lo: float
    hi: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.lo < self.hi:
            raise ValueError("need 0 < lo < hi")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    @property
    def mean(self) -> float:  # type: ignore[override]
        a, l, h = self.alpha, self.lo, self.hi
        if abs(a - 1.0) < 1e-12:
            return l * h / (h - l) * np.log(h / l)
        c = l**a / (1.0 - (l / h) ** a)
        return c * a / (a - 1.0) * (l ** (1.0 - a) - h ** (1.0 - a))

    @property
    def upper(self) -> float:  # type: ignore[override]
        return self.hi

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.quantile(rng.uniform(0.0, 1.0, size))

    def survival(self, x) -> np.ndarray:
        x = _as_array(x)
        a, l, h = self.alpha, self.lo, self.hi
        denom = 1.0 - (l / h) ** a
        xs = np.clip(x, l, h)
        sf = ((l / xs) ** a - (l / h) ** a) / denom
        return np.where(x < l, 1.0, np.where(x >= h, 0.0, sf))

    def quantile(self, q) -> np.ndarray:
        q = np.clip(_as_array(q), 0.0, 1.0 - 1e-16)
        a, l, h = self.alpha, self.lo, self.hi
        # Inverse of F(x) = (1 - (l/x)^a) / (1 - (l/h)^a).
        denom = 1.0 - (l / h) ** a
        return l * (1.0 - q * denom) ** (-1.0 / a)
