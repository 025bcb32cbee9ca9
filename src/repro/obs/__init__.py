"""repro.obs — unified observability across the simulation stack.

The paper's method *is* observability: "we utilize execution time
profiling and ftrace" (§4.2.1) is how every countermeasure in Table 2
was found.  This package generalizes that microscope from one kernel
to the whole simulated system:

* :mod:`repro.obs.tracer` — a cross-layer span/event
  :class:`Tracer` (named layers, bounded ring, deterministic
  simulated-time stamps, zero overhead when disabled);
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, labeled
  counters/gauges/histograms;
* :mod:`repro.obs.export` — byte-deterministic Chrome/Perfetto
  ``trace.json``, JSONL, and Prometheus exposition writers;
* :mod:`repro.obs.attribution` — :class:`NoiseAttribution`, the ranked
  interference-actor report, now spanning every layer;
* :mod:`repro.obs.runtrace` — :func:`trace_experiment`, the engine of
  ``repro trace run``;
* :mod:`repro.obs.spool` — :class:`TelemetrySpool`, the per-worker
  durable flight recorder behind ``repro serve --telemetry``;
* :mod:`repro.obs.fleet` — :class:`FleetAggregator`, the deterministic
  fold of journal + spools behind ``repro service top`` / ``report``.

Instrumentation hooks live in the instrumented modules themselves
(ftrace, proxy, LWK syscalls, batch scheduler, fault injector, perf
executor, job service); they all consult :func:`get_tracer` and do nothing
when no tracer is installed.
"""

from .export import (
    TRACE_FORMAT_VERSION,
    chrome_trace,
    chrome_trace_json,
    ensure_valid_chrome_trace,
    jsonl_lines,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
)
from .tracer import LAYERS, TraceSpan, Tracer, get_tracer, tracing

#: Lazily imported (PEP 562): these submodules reach back into the
#: instrumented packages (kernel, experiments, service, and the chaos
#: hooks behind :mod:`repro.durable`), which import
#: ``repro.obs.tracer`` — eager imports here would be a cycle.
_LAZY = {
    "DEFAULT_SLO": "fleet",
    "FleetAggregator": "fleet",
    "NoiseAttribution": "attribution",
    "TelemetrySpool": "spool",
    "TracedRun": "runtrace",
    "load_slo": "fleet",
    "read_spool": "spool",
    "spool_dir": "spool",
    "trace_experiment": "runtrace",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_SLO",
    "FleetAggregator",
    "Gauge",
    "Histogram",
    "LAYERS",
    "MetricsRegistry",
    "NoiseAttribution",
    "TRACE_FORMAT_VERSION",
    "TelemetrySpool",
    "TraceSpan",
    "TracedRun",
    "Tracer",
    "chrome_trace",
    "chrome_trace_json",
    "ensure_valid_chrome_trace",
    "get_metrics",
    "get_tracer",
    "jsonl_lines",
    "load_slo",
    "prometheus_text",
    "read_spool",
    "spool_dir",
    "trace_experiment",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
