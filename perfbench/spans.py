"""Tracing from outside the program: wrap its public functions, record
spans in memory, derive per-layer metrics.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.installed`
replaces each hooked function *where its callers look it up* (a
function imported by name into another module is patched there too)
and restores the originals on exit, so untraced passes run the
unmodified program.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional


def _mixture_methods(cls) -> list[str]:
    return sorted(name for name, value in vars(cls).items()
                  if callable(value) and not name.startswith("_"))


def hooks() -> list[tuple]:
    """Every hooked call site as (owner, attribute, span name or
    ``args -> span name``, ``(args, result) -> counts`` or None),
    grouped by the layer it belongs to."""
    import repro.apps.fwq as fwq
    import repro.experiments.export as export
    import repro.experiments.table2 as table2
    import repro.noise as noise
    import repro.noise.sampler as sampler
    import repro.perf.executor as executor
    from repro.engine import ExecutionEngine
    from repro.noise.analytic import IterationMixture
    from repro.noise.sampler import BarrierDelaySampler
    from repro.obs.fleet import FleetAggregator
    from repro.perf.cache import RunCache
    from repro.runtime.runner import AppRunner
    from repro.service.fsck import ServiceFsck
    from repro.service.journal import Journal
    from repro.service.queue import JobQueue
    from repro.service.worker import Worker

    def experiment_name(_engine, experiment_id, *_a, **_k) -> str:
        return f"experiments.{experiment_id}"

    return [
        # experiments
        (ExecutionEngine, "run_experiment", experiment_name, None),
        (export, "export_all", "experiments.export", None),
        # noise: multi_core_fwq/worst_nodes are imported by name into
        # the FWQ app and table2, so each lookup site is patched.
        *[(mod, "multi_core_fwq", "noise.multi_core_fwq", None)
          for mod in (sampler, noise, fwq, table2)],
        *[(mod, "worst_nodes", "noise.worst_nodes", None)
          for mod in (sampler, noise, fwq)],
        *[(IterationMixture, name, "noise.mixture", None)
          for name in _mixture_methods(IterationMixture)],
        (BarrierDelaySampler, "sample_batch", "noise.sample_batch", None),
        # runtime
        (AppRunner, "run", "runtime.run", None),
        # perf
        (executor, "execute_cells", "perf.execute_cells",
         lambda args, _r: {"perf.cells": len(args[0])}),
        (RunCache, "get", "perf.cache_get",
         lambda _a, r: {"perf.cache_hits": int(r is not None)}),
        (RunCache, "put", "perf.cache_put", None),
        # engine
        (ExecutionEngine, "run_specs", "engine.run_specs", None),
        # service
        (Worker, "run", "service.drain", None),
        (JobQueue, "submit", "service.submit", None),
        (JobQueue, "claim_next", "service.claim_next", None),
        (JobQueue, "table", "service.table", None),
        (JobQueue, "jobspec", "service.jobspec", None),
        (JobQueue, "complete", "service.complete", None),
        (JobQueue, "heartbeat", "service.heartbeat", None),
        (Journal, "records", "service.journal_read",
         lambda _a, r: {"service.journal_lines_parsed": len(r)}),
        (Journal, "append", "service.journal_append", None),
        (ServiceFsck, "run", "service.fsck", None),
        # obs
        (FleetAggregator, "__init__", "obs.fleet_load", None),
        (FleetAggregator, "report_json", "obs.report_json", None),
        (FleetAggregator, "prometheus", "obs.prometheus", None),
        (FleetAggregator, "chrome", "obs.chrome", None),
        (FleetAggregator, "rollups", "obs.rollups", None),
    ]


class Tracer:
    """Spans (id, parent, name, start, end) and counters, in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, fn: Callable, name, on_result) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, span_name, start, end))
            if on_result is not None:
                with tracer._lock:
                    for key, n in on_result(args, result).items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every hook for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, on_result in hooks():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- derived numbers ----------------------------------------------

    def summary(self) -> dict[str, dict]:
        """name -> {calls, inclusive_s, self_s}.

        ``inclusive_s`` counts only the outermost span of each name, so
        a function that re-enters itself (or two public methods of one
        class calling each other) is not counted twice.  ``self_s`` is
        the span's duration minus the time its direct children cover.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for span_id, parent, _n, start, end in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: dict[str, dict] = {}
        for span_id, parent, name, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time.get(span_id, 0.0)
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                entry["inclusive_s"] += end - start
        return out

    def write(self, path: pathlib.Path, meta: Optional[dict] = None) -> None:
        """The spans as JSON lines, after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"meta": meta or {},
                                 "counts": self.counts}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
