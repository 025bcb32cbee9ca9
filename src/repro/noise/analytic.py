"""Closed-form noise models: Eq. 1, Eq. 2, and the at-scale FWQ tail.

The paper's analytic apparatus is reproduced exactly:

* **Eq. 1** — expected relative delay of a bulk-synchronous application
  from grouped noise statistics;
* **Eq. 2** — the noise *rate* metric of Table 2;
* ``max_noise_length`` — Table 2's other metric, T_max - T_min;
* :class:`IterationMixture` — the exact iteration-length distribution of
  FWQ under a source catalogue, which is how the Figure 4 CDF is
  evaluated at the full 158,976-node scale where direct simulation of
  ~4e11 iterations is impossible on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .source import NoiseSource, Occurrence


# ----------------------------------------------------------------------
# Eq. 1
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseGroup:
    """One group of noises as in Eq. 1: length L_i, interval I_i."""

    length: float
    interval: float

    def __post_init__(self) -> None:
        if self.length < 0 or self.interval <= 0:
            raise ConfigurationError("need length >= 0 and interval > 0")


def eq1_delay(groups: Sequence[NoiseGroup], sync_interval: float,
              n_threads: int) -> float:
    """Eq. 1: estimated relative delay of a bulk-synchronous app.

        max_i ( (1 - (1 - S/I_i)^N) * L_i / S )

    Returns the relative slowdown (0.2 == 20%).  ``S/I`` is clamped to 1
    (a noise more frequent than the sync interval hits every interval).
    """
    if sync_interval <= 0:
        raise ConfigurationError("sync_interval must be positive")
    if n_threads <= 0:
        raise ConfigurationError("n_threads must be positive")
    worst = 0.0
    for g in groups:
        p_single = min(1.0, sync_interval / g.interval)
        # (1-p)^N underflows for large N; use expm1/log1p.
        if p_single >= 1.0:
            p_any = 1.0
        else:
            p_any = -math.expm1(n_threads * math.log1p(-p_single))
        worst = max(worst, p_any * g.length / sync_interval)
    return worst


def groups_from_sources(sources: Sequence[NoiseSource]) -> list[NoiseGroup]:
    """Lower a source catalogue to Eq. 1 groups, using each source's
    maximum length (the paper's conservative convention: delay is
    estimated from the *max* noise length per group)."""
    return [NoiseGroup(length=s.max_length, interval=s.interval)
            for s in sources]


# ----------------------------------------------------------------------
# Eq. 2 and Table 2 metrics
# ----------------------------------------------------------------------

def noise_rate(iteration_lengths: np.ndarray) -> float:
    """Eq. 2: sum((T_i - T_min) / T_min) / n over FWQ iterations."""
    t = np.asarray(iteration_lengths, dtype=float)
    if t.size == 0:
        raise ConfigurationError("no iterations")
    t_min = t.min()
    if t_min <= 0:
        raise ConfigurationError("iteration lengths must be positive")
    return float(((t - t_min) / t_min).mean())


def max_noise_length(iteration_lengths: np.ndarray) -> float:
    """Table 2's maximum noise length: T_max - T_min."""
    t = np.asarray(iteration_lengths, dtype=float)
    if t.size == 0:
        raise ConfigurationError("no iterations")
    return float(t.max() - t.min())


def noise_lengths(iteration_lengths: np.ndarray) -> np.ndarray:
    """Figure 3's per-sample noise length: L_i = T_i - T_min."""
    t = np.asarray(iteration_lengths, dtype=float)
    return t - t.min()


# ----------------------------------------------------------------------
# Iteration-length mixture (Figure 4 at scale)
# ----------------------------------------------------------------------

class IterationMixture:
    """Exact distribution of one FWQ iteration's length under a noise
    catalogue.

    An iteration of work time ``t_work`` is delayed by each source that
    fires during it.  With per-iteration hit probabilities ``p_k`` (all
    << 1 for calibrated catalogues) the survival function of the total
    length X is, to first order in the p's,

        P(X > t_work + y) = 1 - prod_k (1 - p_k * S_k(y))

    where ``S_k`` is source k's duration survival.  The product form is
    kept (not the linearised sum) so the expression stays a valid
    probability even for ticks with p == 1.
    """

    def __init__(self, sources: Sequence[NoiseSource], t_work: float) -> None:
        if t_work <= 0:
            raise ConfigurationError("t_work must be positive")
        self.sources = list(sources)
        self.t_work = t_work
        self._probs = np.array(
            [self._hit_probability(s) for s in self.sources]
        )

    def _hit_probability(self, s: NoiseSource) -> float:
        if s.occurrence is Occurrence.PERIODIC:
            return min(1.0, self.t_work / s.interval)
        return -math.expm1(-self.t_work / s.interval)

    # -- distribution ------------------------------------------------------

    def survival(self, lengths: np.ndarray | float) -> np.ndarray:
        """P(iteration length > x), vectorized over x (scalar in ->
        scalar out)."""
        arr = np.asarray(lengths, dtype=float)
        x = np.atleast_1d(arr)
        y = x - self.t_work
        log_none = np.zeros_like(y)
        for p, s in zip(self._probs, self.sources):
            sf = s.duration.survival(np.maximum(y, 0.0))
            log_none += np.log1p(-np.clip(p * sf, 0.0, 1.0 - 1e-18))
        out = np.where(y < 0, 1.0, -np.expm1(log_none))
        return out if arr.ndim else float(out[0])

    def quantile(self, q: float) -> float:
        """Iteration length at cumulative probability ``q`` (bisection on
        the survival function)."""
        if not 0.0 <= q < 1.0:
            raise ConfigurationError("q must be in [0, 1)")
        target = 1.0 - q
        lo = self.t_work
        hi = self.t_work + max(
            (s.max_length for s in self.sources), default=0.0
        )
        if hi <= lo or float(self.survival(lo)) <= target:
            return lo
        # Stop at the fixed point: once an assignment leaves (lo, hi)
        # unchanged, every later step repeats it, so the result is the
        # one the full 200 steps would return.
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self.survival(mid)) > target:
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return 0.5 * (lo + hi)

    def expected_max(self, n_samples: float) -> float:
        """Iteration length at the 1 - 1/n quantile — the length one
        expects to *observe* as the maximum when pooling ``n_samples``
        iterations (how machine scale stretches the Fig. 4 tail)."""
        if n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        return self.quantile(1.0 - 1.0 / n_samples)

    def cdf_curve(self, n_points: int = 512,
                  n_samples: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(lengths, cdf) arrays for plotting/reporting the Fig. 4 curve.
        With ``n_samples`` the x-range is clipped at the expected
        observed maximum for that pool size."""
        if n_points < 2:
            raise ConfigurationError("n_points must be >= 2")
        x_max = (
            self.expected_max(n_samples)
            if n_samples is not None
            else self.t_work + max(
                (s.max_length for s in self.sources), default=0.0
            )
        )
        x_max = max(x_max, self.t_work * (1.0 + 1e-9))
        x = np.linspace(self.t_work, x_max, n_points)
        cdf = 1.0 - self.survival(x)
        return x, cdf

    def mean_overhead(self) -> float:
        """Expected extra time per iteration (sums exactly, no max)."""
        return sum(
            p * s.duration.mean for p, s in zip(self._probs, self.sources)
        )
