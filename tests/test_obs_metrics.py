"""repro.obs.metrics: labeled series plus the flat add/timer API."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_metrics,
)


def test_counter_labels_create_distinct_series():
    m = MetricsRegistry()
    m.counter("runs", kernel="linux").inc()
    m.counter("runs", kernel="mckernel").inc(2)
    m.counter("runs", kernel="linux").inc()
    assert m.counter("runs", kernel="linux").value == 2
    assert m.counter("runs", kernel="mckernel").value == 2
    assert m.counts == {'runs{kernel="linux"}': 2,
                        'runs{kernel="mckernel"}': 2}


def test_counter_rejects_negative_and_empty_name():
    m = MetricsRegistry()
    with pytest.raises(ConfigurationError):
        m.counter("x").inc(-1)
    with pytest.raises(ConfigurationError):
        m.counter("")


def test_gauge_set_and_add():
    m = MetricsRegistry()
    g = m.gauge("queue.depth", node=3)
    g.set(10)
    g.add(-4)
    assert m.gauge("queue.depth", node=3).value == 6


def test_histogram_buckets_and_mean():
    h = Histogram(("lat", ()), bounds=(1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0, 500.0):
        h.observe(v)
    assert h.bucket_counts == [1, 1, 1]  # 500 overflows every bound
    assert h.count == 4
    assert h.mean == pytest.approx(138.875)


def test_histogram_bounds_must_ascend():
    with pytest.raises(ConfigurationError):
        Histogram(("x", ()), bounds=(2.0, 1.0))
    with pytest.raises(ConfigurationError):
        Histogram(("x", ()), bounds=())


def test_default_buckets_cover_syscalls_to_job_walltimes():
    assert DEFAULT_BUCKETS[0] <= 1e-6 and DEFAULT_BUCKETS[-1] >= 1e4


# -- the flat add/timer surface ---------------------------------------


def test_legacy_add_counts_timer_and_snapshot():
    m = MetricsRegistry()
    m.add("cache.hits", 3)
    m.add("cache.misses")
    with m.timer("compute"):
        pass
    assert m.counts["cache.hits"] == 3
    assert m.counts["cache.misses"] == 1
    assert m.hit_rate() == pytest.approx(0.75)
    assert "compute" in m.timings
    report = m.report()
    assert report.startswith("perf counters:")
    assert "cache.hit_rate" in report


def test_hit_rate_does_not_create_series():
    m = MetricsRegistry()
    assert m.hit_rate() == 0.0
    assert m.report() == "perf counters:\n  (nothing recorded)"
    assert m.counts == {}


def test_get_metrics_prefers_the_ambient_context():
    from repro.perf.context import perf_context

    base = get_metrics()
    scoped = MetricsRegistry()
    with perf_context(counters=scoped):
        assert get_metrics() is scoped
    assert get_metrics() is base
