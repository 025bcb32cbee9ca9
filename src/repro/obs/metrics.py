"""Labeled metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` keeps the flat-counter / wall-time-timer
API that the executor and the ``--stats`` flag rely on, and adds
**labeled series** (``registry.counter("runs", kernel="mckernel").inc()``)
plus gauges and
fixed-bucket histograms, so one registry can answer the questions the
gem5 standardization paper argues simulators must emit as
machine-readable artifacts — per-kernel, per-node, per-experiment
breakdowns rather than one global number.

Rendering is deterministic: :func:`repro.obs.export.prometheus_text`
sorts series by (name, labels), so two identical runs dump identical
text.  Wall-clock timers are the one intentionally non-deterministic
corner — they never appear in trace exports, only in the human-facing
``--stats`` / ``repro metrics`` reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Sequence

from ..errors import ConfigurationError

#: Histogram bucket upper bounds (seconds) used when none are given:
#: log-spaced from microseconds to hours, matching the span of costs
#: the simulation produces (syscall latencies .. job walltimes).
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
                   100.0, 1000.0, 10000.0)

#: (name, sorted (label, value) pairs) — the identity of one series.
SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


def _series_key(name: str, labels: dict[str, object]) -> SeriesKey:
    if not name:
        raise ConfigurationError("metric name must be non-empty")
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(key: SeriesKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing value for one labeled series."""

    __slots__ = ("key", "value")

    def __init__(self, key: SeriesKey) -> None:
        self.key = key
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ConfigurationError("counters only go up")
        self.value += n


class Gauge:
    """A value that can be set to anything (queue depths, rates)."""

    __slots__ = ("key", "value")

    def __init__(self, key: SeriesKey) -> None:
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style)."""

    __slots__ = ("key", "bounds", "bucket_counts", "total", "count")

    def __init__(self, key: SeriesKey,
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                "histogram bounds must be non-empty and ascending")
        self.key = key
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Registry of labeled counters/gauges/histograms.

    Also keeps the flat :meth:`add`/:meth:`timer` surface the executor
    and ``--stats`` use.
    """

    def __init__(self) -> None:
        self._counters: dict[SeriesKey, Counter] = {}
        self._gauges: dict[SeriesKey, Gauge] = {}
        self._histograms: dict[SeriesKey, Histogram] = {}
        self.timings: dict[str, float] = {}

    # -- labeled series ------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = _series_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(key)
        return c

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = _series_key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(key)
        return g

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: object) -> Histogram:
        key = _series_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(key, buckets)
        return h

    # -- flat counters and timers -------------------------------------

    def add(self, name: str, n: int = 1) -> None:
        """Increment the (unlabeled) event counter ``name`` by ``n``."""
        self.counter(name).inc(n)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the ``with`` body under ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = (self.timings.get(name, 0.0)
                                  + time.perf_counter() - t0)

    @property
    def counts(self) -> dict[str, int]:
        """Flat view of every counter (labeled series rendered as
        ``name{k="v"}``), values as ints when whole."""
        out = {}
        for key, c in self._counters.items():
            v = c.value
            out[_render_key(key)] = int(v) if v == int(v) else v
        return out

    def _counter_value(self, name: str) -> float:
        """Read an unlabeled counter without creating it."""
        c = self._counters.get(_series_key(name, {}))
        return c.value if c is not None else 0.0

    def hit_rate(self, prefix: str = "cache") -> float:
        """``<prefix>.hits / (<prefix>.hits + <prefix>.misses)``; 0.0
        when nothing was recorded."""
        hits = self._counter_value(f"{prefix}.hits")
        misses = self._counter_value(f"{prefix}.misses")
        total = hits + misses
        return hits / total if total else 0.0

    def report(self) -> str:
        """Human-readable summary (the ``--stats`` output)."""
        lines = ["perf counters:"]
        counts = self.counts
        if not counts and not self.timings and not self._gauges:
            lines.append("  (nothing recorded)")
            return "\n".join(lines)
        for name in sorted(counts):
            lines.append(f"  {name:<28} {counts[name]}")
        for key in sorted(self._gauges):
            lines.append(f"  {_render_key(key):<28} "
                         f"{self._gauges[key].value:g}")
        for name in sorted(self.timings):
            lines.append(f"  {name:<28} {self.timings[name]:.3f} s")
        total = (self._counter_value("cache.hits")
                 + self._counter_value("cache.misses"))
        if total:
            lines.append(f"  {'cache.hit_rate':<28} {self.hit_rate():.1%}")
        return "\n".join(lines)

    # -- iteration (used by the exporters) ----------------------------

    def counter_series(self) -> list[Counter]:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauge_series(self) -> list[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histogram_series(self) -> list[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]


#: Process-wide default instance; the perf context layer points at it
#: unless a scope installs its own.
_GLOBAL = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The ambient registry: the innermost
    :class:`repro.perf.context.PerfContext`'s, falling back to the
    global instance."""
    from ..perf.context import get_context

    ctx = get_context()
    return ctx.counters if ctx.counters is not None else _GLOBAL
