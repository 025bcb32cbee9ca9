"""The one execution core: how a spec becomes a result.

Before this module the submit → execute → harvest → export path was
split across three layers: :mod:`repro.cli` hand-wired
``jobs``/``cache``/``counters`` into a :func:`repro.perf.perf_context`,
:mod:`repro.experiments.registry` re-implemented the same wrapping per
call, and the sweep helpers drove :mod:`repro.perf.executor` directly.
:class:`ExecutionEngine` is the single re-rooting point: the one-shot
CLI, the experiment registry, the exporter and the
:mod:`repro.service` worker fleet all execute through it, so a
:class:`~repro.platform.RunSpec` produces the same
:class:`~repro.runtime.runner.RunResult` bytes no matter which front
door submitted it.

Two construction modes, matching the two historical call shapes:

* ``ExecutionEngine()`` — **ambient**: inherits whatever
  :class:`~repro.perf.context.PerfContext` is installed (or the serial
  default).  This is the library-call shape; it is byte-identical to
  calling the underlying runners directly.
* ``ExecutionEngine.from_options(jobs=4, cache=...)`` — **configured**:
  :meth:`session` installs the engine's own context, and every
  execution method run inside (or outside — methods self-install when
  no engine session is active) uses those knobs.  This is the CLI and
  service-worker shape.

Either way the execution *semantics* are identical; configuration only
selects fan-out, memoization and instrumentation, never results.
"""

from __future__ import annotations

import pathlib
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

from .perf.context import PerfContext, get_context, install

if TYPE_CHECKING:
    from .experiments.report import ExperimentResult
    from .platform.spec import PlatformSpec, RunSpec
    from .runtime.runner import RunResult

__all__ = ["ExecutionEngine"]


class ExecutionEngine:
    """The single path from specs and experiment ids to results.

    Construct ambient (``ExecutionEngine()``) to inherit the caller's
    context, or configured (:meth:`from_options`) to own one.  Hold one
    engine per logical submission scope: a CLI invocation, a service
    job, a test.  Methods are safe to call without :meth:`session`;
    wrapping several calls in one ``with engine.session():`` block
    additionally shares the warm worker pool across them.
    """

    def __init__(self, options: Optional[PerfContext] = None) -> None:
        self.options = options
        #: The experiment results of the open session, by (id, fast,
        #: seed); None outside a session.
        self._results: Optional[dict] = None

    @classmethod
    def from_options(cls, **knobs: Any) -> "ExecutionEngine":
        """Engine with its own execution context (see
        :class:`~repro.perf.context.PerfContext` for the knobs)."""
        return cls(PerfContext(**knobs))

    # -- context ------------------------------------------------------

    @contextmanager
    def session(self) -> Iterator[PerfContext]:
        """Install the engine's execution context for the block.

        Ambient engines and nested sessions are pass-throughs: the
        innermost installed context keeps applying, so the serial
        default CLI path stays byte-identical to the pre-engine code
        and one outer session shares its pool with every inner call.

        The outermost session also scopes the experiment results: an
        experiment run twice in it, or derived from others (see
        :data:`~repro.experiments.registry.DERIVED`), is computed once,
        and every caller gets the same (read-only) result object.  The
        results are dropped when the session ends.
        """
        if self._results is not None:
            yield get_context()
            return
        self._results = {}
        try:
            if self.options is None:
                yield get_context()
            else:
                with install(self.options) as ctx:
                    yield ctx
        finally:
            self._results = None

    # -- spec execution -----------------------------------------------

    def run_specs(self, specs: Sequence["RunSpec"]) -> "list[RunResult]":
        """Execute one :class:`RunSpec` per sweep cell.

        Results come back in spec order, bit-identical to a serial
        run; cache keys are the SHA-256 of each spec's canonical JSON.
        """
        from .chaos.hooks import get_chaos
        from .obs.tracer import get_tracer
        from .platform.resolve import run_cells

        with self.session():
            cz = get_chaos()
            if cz is not None:
                # The worker-dies-mid-execution window: claim held,
                # RUNNING journaled, nothing published yet.
                cz.on("engine.run")
            tracer = get_tracer()
            if tracer is not None:
                tracer.event("service", "engine.run",
                             ts=tracer.advance("service"), actor="engine",
                             cells=len(specs))
            return run_cells(list(specs))

    def run_spec(self, spec: "RunSpec") -> "RunResult":
        """Execute a single :class:`RunSpec`."""
        return self.run_specs([spec])[0]

    # -- experiment execution -----------------------------------------

    def run_experiment(self, experiment_id: str, fast: bool = True,
                       seed: int = 0,
                       platform: Optional["PlatformSpec"] = None,
                       ) -> "ExperimentResult":
        """Run one registered experiment by id.

        ``platform`` re-targets the experiment; only runners whose
        signature is platform-parameterised accept it (anything else
        is a :class:`~repro.errors.ConfigurationError`, because those
        layouts are fixed by the paper).  A re-targeted result is not
        kept for reuse.
        """
        from .errors import ConfigurationError
        from .experiments.registry import DERIVED, EXPERIMENTS

        try:
            _, runner = EXPERIMENTS[experiment_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown experiment {experiment_id!r}; "
                f"known: {sorted(EXPERIMENTS)}"
            ) from None
        kwargs: dict = {"fast": fast, "seed": seed}
        if platform is not None:
            import inspect

            if "platform" not in inspect.signature(runner).parameters:
                raise ConfigurationError(
                    f"experiment {experiment_id!r} is not "
                    "platform-parameterised (its layout is fixed by the "
                    "paper); run it without --spec/platform"
                )
            kwargs["platform"] = platform
        key = (experiment_id, fast, seed)
        with self.session():
            if platform is None and key in self._results:
                return self._results[key]
            if experiment_id in DERIVED:
                inputs, derive = DERIVED[experiment_id]
                result = derive(*(self.run_experiment(i, fast=fast,
                                                      seed=seed)
                                  for i in inputs))
            else:
                result = runner(**kwargs)
            if platform is None:
                self._results[key] = result
            return result

    def run_experiments(self, ids: Iterable[str], fast: bool = True,
                        seed: int = 0,
                        platform: Optional["PlatformSpec"] = None,
                        ) -> "dict[str, ExperimentResult]":
        """Run several experiments under one session (one shared
        pool), in the given order."""
        with self.session():
            return {
                eid: self.run_experiment(eid, fast=fast, seed=seed,
                                         platform=platform)
                for eid in ids
            }

    def export_experiments(
        self,
        directory: "str | pathlib.Path",
        ids: Optional[Iterable[str]] = None,
        fast: bool = True,
        seed: int = 0,
    ) -> "dict[str, list[str]]":
        """Run and export experiments (JSON + CSV + rendered text).

        This is the artifact-producing path the service workers share
        with ``repro export``: same engine, same files, same bytes.
        """
        from .chaos.hooks import get_chaos
        from .experiments.export import export_all
        from .obs.tracer import get_tracer

        with self.session():
            cz = get_chaos()
            if cz is not None:
                cz.on("engine.run")
            tracer = get_tracer()
            if tracer is not None:
                tracer.event("service", "engine.run",
                             ts=tracer.advance("service"), actor="engine")
            return export_all(directory, ids=ids, fast=fast, seed=seed,
                              engine=self)
