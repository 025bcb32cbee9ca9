"""One-command traced runs: ``repro trace run <experiment>``.

:func:`trace_experiment` wraps any registered experiment in an ambient
:func:`~repro.obs.tracer.tracing` scope plus a fresh
:class:`~repro.obs.metrics.MetricsRegistry`, so every instrumentation
hook the experiment reaches — LWK syscalls, proxy delegations,
batch-job attempts, fault injections, sweep cells — lands in one
buffer, ready for the :mod:`repro.obs.export` writers.

The trace holds what the named experiment ran and nothing else: an
analytic experiment (``table1``, ``eq1``) records no events, ``fig2``
records the LWK and its proxy, the application figures record their
perf cells and ``faults`` records the batch scheduler and its injected
faults.

Determinism: everything here is seeded; the trace bytes depend only on
``(experiment_id, fast, seed)`` — never on ``--jobs``, wall time, or
process scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .metrics import MetricsRegistry
from .tracer import Tracer, tracing

#: Default ring size for traced runs: big enough that a fast-mode
#: experiment never wraps.
DEFAULT_BUFFER = 1_000_000


@dataclass
class TracedRun:
    """One experiment's result together with its trace and metrics."""

    experiment_id: str
    seed: int
    fast: bool
    result: object                   # the ExperimentResult
    tracer: Tracer
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def metadata(self) -> dict:
        """Deterministic trace metadata — intentionally excludes
        ``jobs`` (and anything else that must not change the bytes)."""
        return {"experiment": self.experiment_id, "seed": self.seed,
                "fast": self.fast}

    def chrome_json(self) -> str:
        from .export import chrome_trace_json

        return chrome_trace_json(self.tracer, metadata=self.metadata())

    def write(self, path: str) -> str:
        from .export import write_chrome_trace

        return write_chrome_trace(self.tracer, path,
                                  metadata=self.metadata())

    def write_jsonl(self, path: str) -> str:
        from .export import write_jsonl

        return write_jsonl(self.tracer, path)

    def attribution(self):
        from .attribution import NoiseAttribution

        return NoiseAttribution.from_tracer(self.tracer)


def trace_experiment(
    experiment_id: str,
    fast: bool = True,
    seed: int = 0,
    jobs: int = 1,
    buffer_size: int = DEFAULT_BUFFER,
    tracer: Optional[Tracer] = None,
) -> TracedRun:
    """Run one registered experiment with tracing on.

    The run executes under a fresh :class:`MetricsRegistry` and with
    the run cache disabled, so a traced run can never pollute cache
    keys or global counters; ``jobs`` still fans sweeps out, and the
    resulting trace is byte-identical for any ``jobs`` value.
    """
    from ..experiments.registry import run_experiment
    from ..perf.context import perf_context

    metrics = MetricsRegistry()
    if tracer is None:
        tracer = Tracer(buffer_size=buffer_size)
    with tracing(tracer):
        with perf_context(jobs=jobs, cache=None, counters=metrics):
            result = run_experiment(experiment_id, fast=fast, seed=seed)
    return TracedRun(experiment_id=experiment_id, seed=seed, fast=fast,
                     result=result, tracer=tracer, metrics=metrics)
