"""Trace and metrics exporters — byte-deterministic artifacts.

Following the gem5 standardization argument (PAPERS.md): a reproducible
simulator must emit *machine-readable, versioned* stats artifacts, not
printed tables.  Three formats:

* **Chrome/Perfetto trace** (:func:`chrome_trace_json`) — the
  ``trace.json`` event format (``chrome://tracing``, https://ui.perfetto.dev):
  one process, one thread per instrumented layer, ``X`` (complete) and
  ``i`` (instant) phases, microsecond timestamps.
* **JSONL** (:func:`jsonl_lines`) — one JSON object per event, for
  ``grep``/``jq`` pipelines and :func:`repro.obs.attribution.NoiseAttribution.from_jsonl`.
* **Prometheus text** (:func:`prometheus_text`) — the
  :class:`~repro.obs.metrics.MetricsRegistry` as an exposition-format
  dump (``repro metrics``).

Every serialization is canonical — keys sorted, fixed separators,
events ordered by ``(ts, seq)``, timestamps rounded to 1 ns — so the
same seeded run always produces the identical bytes, which the
determinism tests assert and CI validates.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator

from ..errors import ConfigurationError
from .tracer import LAYERS, Tracer

if TYPE_CHECKING:
    from .metrics import MetricsRegistry

#: Format version stamped into ``otherData`` (and bumped on layout
#: changes, like the cache's SCHEMA_VERSION).
TRACE_FORMAT_VERSION = 1

_SECONDS_TO_US = 1e6


def canonical_json(obj: object) -> str:
    """Canonical serialization — sorted keys, fixed separators — the
    one byte form every exporter and cache digest shares.
    Public so other subsystems hash exactly what the exporters emit."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_canon_json = canonical_json


def _us(seconds: float) -> float:
    """Simulated seconds → microseconds, rounded to 1 ns so float noise
    can never leak into the byte stream."""
    return round(seconds * _SECONDS_TO_US, 3)


def chrome_trace(tracer: Tracer, metadata: dict | None = None) -> dict:
    """The trace as a Chrome trace-event ``dict`` (JSON object format).

    Layers map to threads of one ``repro`` process; events are sorted
    by ``(layer, ts, seq)`` so the output is independent of interleaved
    record order across layers.
    """
    events: list[dict] = []
    for i, layer in enumerate(LAYERS):
        events.append({
            "ph": "M", "pid": 1, "tid": i, "name": "thread_name",
            "args": {"name": layer},
        })
    events.append({
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": "repro"},
    })
    if tracer.dropped:
        # Ring overflow is loss of evidence: surface it as a metadata
        # event (in addition to otherData.droppedEvents) so viewers
        # and downstream tooling can't miss it.
        events.append({
            "ph": "M", "pid": 1, "tid": 0, "name": "obs_dropped_total",
            "args": {"value": tracer.dropped},
        })
    recorded = sorted(tracer.events,
                      key=lambda ev: (ev.layer, ev.ts, ev.seq))
    for ev in recorded:
        args: dict = dict(ev.args)
        if ev.actor:
            args["actor"] = ev.actor
        entry = {
            "name": ev.name,
            "cat": ev.layer,
            "pid": 1,
            "tid": LAYERS.index(ev.layer),
            "ts": _us(ev.ts),
            "args": args,
        }
        if ev.is_span:
            entry["ph"] = "X"
            entry["dur"] = _us(ev.duration)
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        events.append(entry)
    other = {"formatVersion": TRACE_FORMAT_VERSION,
             "droppedEvents": tracer.dropped,
             "layers": tracer.layer_counts()}
    if metadata:
        other.update(metadata)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


def chrome_trace_json(tracer: Tracer, metadata: dict | None = None) -> str:
    """Canonical (byte-deterministic) JSON text of :func:`chrome_trace`."""
    return _canon_json(chrome_trace(tracer, metadata)) + "\n"


def write_chrome_trace(tracer: Tracer, path: str,
                       metadata: dict | None = None) -> str:
    """Write ``trace.json``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(tracer, metadata))
    return path


def jsonl_lines(tracer: Tracer) -> Iterator[str]:
    """One canonical JSON object per event, in ``(ts, seq)`` order.

    A tracer that overflowed its ring additionally yields a trailer
    object carrying ``obs_dropped_total`` — the event stream must not
    read as complete when it is not.  Consumers key on ``layer`` to
    tell events from the trailer.
    """
    for ev in sorted(tracer.events, key=lambda e: (e.ts, e.seq)):
        yield _canon_json({
            "layer": ev.layer, "name": ev.name, "ts": _us(ev.ts),
            "dur": _us(ev.duration), "actor": ev.actor, "args": ev.args,
            "seq": ev.seq,
        })
    if tracer.dropped:
        yield _canon_json({"obs_dropped_total": tracer.dropped})


def write_jsonl(tracer: Tracer, path: str) -> str:
    """Write the JSONL event log; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in jsonl_lines(tracer):
            fh.write(line + "\n")
    return path


def prometheus_text(registry: "MetricsRegistry",
                    prefix: str = "repro",
                    tracer: "Tracer | None" = None) -> str:
    """The registry in Prometheus exposition format.

    Metric names are sanitized (``.`` → ``_``) and prefixed; series are
    emitted in sorted order, so the dump is deterministic for a given
    registry state.  Wall-clock timings surface as
    ``<prefix>_timing_seconds{name="..."}``.  Passing a ``tracer``
    additionally emits ``<prefix>_obs_dropped_total`` — its ring
    overflow counter, so silent trace truncation has a metric.
    """
    def name_of(key) -> str:
        base = key[0].replace(".", "_").replace("-", "_")
        return f"{prefix}_{base}"

    def labels_of(key, extra: dict | None = None) -> str:
        pairs = list(key[1]) + sorted((extra or {}).items())
        if not pairs:
            return ""
        return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"

    def fmt(v: float) -> str:
        return str(int(v)) if v == int(v) else repr(float(v))

    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        # One TYPE comment per metric name; series of the same name
        # (sorted, so adjacent) share it.
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for c in registry.counter_series():
        type_line(name_of(c.key), "counter")
        lines.append(f"{name_of(c.key)}{labels_of(c.key)} {fmt(c.value)}")
    for g in registry.gauge_series():
        type_line(name_of(g.key), "gauge")
        lines.append(f"{name_of(g.key)}{labels_of(g.key)} {fmt(g.value)}")
    for h in registry.histogram_series():
        base = name_of(h.key)
        type_line(base, "histogram")
        cumulative = 0
        for bound, n in zip(h.bounds, h.bucket_counts):
            cumulative += n
            lines.append(f"{base}_bucket"
                         f"{labels_of(h.key, {'le': repr(bound)})} "
                         f"{cumulative}")
        lines.append(f"{base}_bucket{labels_of(h.key, {'le': '+Inf'})} "
                     f"{h.count}")
        lines.append(f"{base}_sum{labels_of(h.key)} {fmt(h.total)}")
        lines.append(f"{base}_count{labels_of(h.key)} {h.count}")
    for name in sorted(registry.timings):
        type_line(f"{prefix}_timing_seconds", "gauge")
        lines.append(f"{prefix}_timing_seconds{{name=\"{name}\"}} "
                     f"{registry.timings[name]:.6f}")
    if tracer is not None:
        type_line(f"{prefix}_obs_dropped_total", "counter")
        lines.append(f"{prefix}_obs_dropped_total {tracer.dropped}")
    return "\n".join(lines) + "\n" if lines else ""


# -- validation (the CI "Trace smoke" gate) ----------------------------

_VALID_PHASES = {"X", "i", "M"}


def validate_chrome_trace(obj: object) -> list[str]:
    """Structural checks on a parsed ``trace.json``; returns problems
    (empty list == valid).  Used by the CI smoke step and the tests, so
    a format regression fails loudly instead of producing a file the
    viewers silently reject."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return ["top level is not an object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if ph == "M":
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        if ev.get("cat") not in LAYERS:
            problems.append(f"{where}: cat {ev.get('cat')!r} is not a "
                            "known layer")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    return problems


def ensure_valid_chrome_trace(obj: object) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on an invalid
    trace object."""
    problems = validate_chrome_trace(obj)
    if problems:
        raise ConfigurationError(
            "invalid Chrome trace: " + "; ".join(problems[:5]))
