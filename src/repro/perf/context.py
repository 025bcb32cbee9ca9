"""Ambient execution context for sweeps.

Threading ``jobs=``/``cache=`` through every experiment entry point
would force a signature change on each of the 13 registered
experiments.  Instead a caller installs a :class:`PerfContext` and the
sweep layers (:func:`repro.platform.run_cells`,
:func:`repro.experiments.appfigs.sweep_apps`, everything that reaches
:func:`repro.perf.execute_cells`) read it:

    with perf_context(jobs=4, cache=RunCache(tmp)):
        run_experiment("fig5", fast=False)   # fans out, memoizes

:class:`PerfContext` is the one place the execution knobs are
declared; :class:`repro.engine.ExecutionEngine` installs the same
object.  Each installation also owns a lazily created
:class:`ProcessPoolExecutor`, so consecutive fan-outs inside one block
reuse warm workers instead of re-forking per sweep.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from ..obs.metrics import MetricsRegistry
    from .cache import RunCache


@dataclass
class _Pool:
    """The worker pool of one installation, and whether it broke."""

    executor: Optional["ProcessPoolExecutor"] = None
    broken: bool = False


@dataclass(frozen=True)
class PerfContext:
    """Execution knobs every sweep inside the scope inherits.

    Every knob only affects *how* cells run — fan-out, memoization,
    instrumentation — never what they compute.
    """

    #: Worker processes for cell fan-out; 1 = serial.
    jobs: int = 1
    #: Memoization cache for RunResults; None disables caching.
    cache: Optional["RunCache"] = None
    #: Instrumentation sink (a :class:`repro.obs.metrics.MetricsRegistry`);
    #: None falls back to the global registry.
    counters: Optional["MetricsRegistry"] = None
    #: Wall-clock budget per cell in the parallel path, seconds; None
    #: waits forever.  A timed-out cell counts as a pool failure and is
    #: retried like one.
    cell_timeout: Optional[float] = None
    #: Pool dispatch attempts before the executor degrades to serial.
    max_retries: int = 2
    #: Variance-adaptive Monte-Carlo stopping: keep drawing trial
    #: batches for a sweep cell until the 95% CI half-width of its mean
    #: wall time falls below ``target_ci`` (a fraction of the mean).
    #: None (the default) keeps the fixed trial count and is
    #: byte-identical to every release before the knob existed.
    target_ci: Optional[float] = None
    #: Hard trial ceiling per cell when ``target_ci`` is active.
    max_adaptive_runs: int = 64
    _pool: _Pool = field(default_factory=_Pool, init=False, repr=False,
                         compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", max(1, int(self.jobs)))
        object.__setattr__(self, "max_retries", max(0, int(self.max_retries)))
        object.__setattr__(self, "max_adaptive_runs",
                           max(1, int(self.max_adaptive_runs)))

    def pool(self) -> Optional["ProcessPoolExecutor"]:
        """The shared worker pool (created lazily), or None when the
        context is serial or the pool broke earlier in this scope."""
        held = self._pool
        if self.jobs <= 1 or held.broken:
            return None
        if held.executor is None:
            from concurrent.futures import ProcessPoolExecutor

            try:
                held.executor = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, ValueError):
                held.broken = True
        return held.executor

    def mark_pool_broken(self) -> None:
        """Record a pool failure; later sweeps in this scope run
        serially."""
        self._shutdown()
        self._pool.broken = True

    def _shutdown(self) -> None:
        held = self._pool
        if held.executor is not None:
            held.executor.shutdown(wait=True, cancel_futures=True)
            held.executor = None


#: Stack of installed contexts; the default (serial, uncached) base is
#: always present so get_context() never fails.
_STACK: list[PerfContext] = [PerfContext()]


def get_context() -> PerfContext:
    """The innermost installed context."""
    return _STACK[-1]


@contextmanager
def install(ctx: PerfContext) -> Iterator[PerfContext]:
    """Make ``ctx`` the ambient context for the block.

    Leaving the outermost installation of ``ctx`` shuts its pool down
    and forgets a breakage, so a pool broken in one scope never
    degrades the next scope that installs the same object.
    """
    _STACK.append(ctx)
    try:
        yield ctx
    finally:
        _STACK.pop()
        if not any(c is ctx for c in _STACK):
            ctx._shutdown()
            ctx._pool.broken = False


@contextmanager
def perf_context(**knobs: Any) -> Iterator[PerfContext]:
    """Install ``PerfContext(**knobs)`` for the duration of the block."""
    with install(PerfContext(**knobs)) as ctx:
        yield ctx
