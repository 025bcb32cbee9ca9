"""Deterministic parallel sweep executor.

A sweep — Figs. 5-7, ``compare``, ``run_all`` — is a list of
independent simulation *cells*, each one :class:`RunSpec`.  Each cell
derives its RNG streams from its own coordinates (see
:meth:`AppRunner.run`), so cells can execute in any order, on any
process, and produce bit-identical results; the executor
exploits that by fanning cells out over a
:class:`concurrent.futures.ProcessPoolExecutor` and reassembling
results in submission order.

Failure containment is *cell-granular*: pool infrastructure errors (a
worker killed, an unpicklable payload, fork failure, a cell exceeding
its timeout) cost only the unfinished cells — completed results are
harvested, a warning names the failing cell's cache key, and only the
remainder is retried (bounded attempts over a fresh pool, then the
serial path).  The sweep always completes, and model errors raised by
a cell propagate unchanged in both modes.
"""

from __future__ import annotations

import logging
import pickle
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from .context import get_context
from .fingerprint import spec_key

if TYPE_CHECKING:
    from ..platform.spec import RunSpec
    from ..runtime.runner import RunResult
    from .context import PerfContext

logger = logging.getLogger(__name__)

#: Exceptions that mean "the pool broke", never "the model is wrong".
_POOL_ERRORS = (BrokenProcessPool, OSError, pickle.PicklingError)


@dataclass(frozen=True)
class RunCell:
    """One independent unit of sweep work: one :class:`RunSpec`.

    The cache key is the SHA-256 of the spec's canonical JSON
    (auditable from the on-disk entry).  The spec resolves to its
    machine and OS through the memoized :func:`repro.platform.build`,
    in whichever process runs the cell.

    ``target_ci`` switches the cell to variance-adaptive Monte-Carlo
    sampling (:meth:`AppRunner.run_adaptive`); it travels in the cell
    (not the ambient context) because worker processes never see the
    parent's :class:`PerfContext`.  The knob folds into the cache key
    only when active, so default-config keys — and every cache entry
    written before the knob existed — are untouched (mirroring how
    ``FaultSpec`` composes into the canonical spec JSON only when
    faults are enabled).
    """

    spec: "RunSpec"
    target_ci: Optional[float] = None
    max_adaptive_runs: int = 64

    def key(self) -> str:
        """Content address of this cell (the cache key)."""
        base = spec_key(self.spec)
        if self.target_ci is None:
            return base
        import hashlib

        payload = (f"{base}|target_ci:{self.target_ci!r}"
                   f"|max_adaptive_runs:{int(self.max_adaptive_runs)}")
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def adaptive_fields() -> dict:
    """The ambient context's adaptive-stopping knobs as RunCell kwargs.

    Sweep builders call this in the parent process, where the installed
    :class:`PerfContext` is visible, and bake the values into each cell
    so worker processes honour them.
    """
    ctx = get_context()
    if ctx.target_ci is None:
        return {}
    return {"target_ci": ctx.target_ci,
            "max_adaptive_runs": ctx.max_adaptive_runs}


def _execute_cell(cell: RunCell) -> "RunResult":
    """Run one cell; module-level so worker processes can unpickle it."""
    from ..apps import ALL_PROFILES
    from ..platform.resolve import build
    from ..runtime.runner import AppRunner

    spec = cell.spec
    resolved = build(spec.platform)
    runner = AppRunner(resolved.machine, ALL_PROFILES[spec.app](),
                       seed=spec.seed)
    sources = resolved.noise_sources()
    if cell.target_ci is not None:
        return runner.run_adaptive(resolved.os_instance, spec.n_nodes,
                                   n_runs=spec.n_runs,
                                   target_ci=cell.target_ci,
                                   max_runs=cell.max_adaptive_runs,
                                   sources=sources)
    return runner.run(resolved.os_instance, spec.n_nodes,
                      n_runs=spec.n_runs, sources=sources)


def _run_serial(cells: Sequence[RunCell]) -> list["RunResult"]:
    return [_execute_cell(cell) for cell in cells]


@dataclass
class _PartialPoolFailure(Exception):
    """A pool dispatch died part-way: carries what *did* finish.

    ``done`` maps positions (within the dispatched batch) to harvested
    results, ``failed_index`` names the cell whose future raised, and
    ``cause`` explains why.  Internal to this module — callers of
    :func:`execute_cells` never see it.
    """

    done: dict[int, "RunResult"] = field(default_factory=dict)
    failed_index: int = 0
    cause: str = ""

    def __post_init__(self) -> None:
        super().__init__(self.cause)


def _run_pool(pool: ProcessPoolExecutor, cells: Sequence[RunCell],
              jobs: int, timeout: Optional[float]) -> list["RunResult"]:
    """Fan ``cells`` out over ``pool``; results in submission order.

    One future per cell so a pool failure is attributable: when a
    future raises an infrastructure error (or exceeds ``timeout``
    seconds), every already-finished result is harvested and shipped
    back inside :class:`_PartialPoolFailure` so the caller retries only
    the remainder.
    """
    futures = [pool.submit(_execute_cell, cell) for cell in cells]
    out: list["RunResult"] = []
    for i, future in enumerate(futures):
        try:
            out.append(future.result(timeout=timeout))
        except (*_POOL_ERRORS, FuturesTimeoutError) as exc:
            done = dict(enumerate(out))
            # Harvest everything that finished behind the failure
            # before cancelling the rest.
            for j in range(i + 1, len(futures)):
                f = futures[j]
                if f.done() and not f.cancelled():
                    try:
                        done[j] = f.result(timeout=0)
                    except Exception:
                        pass
                else:
                    f.cancel()
            kind = ("timeout" if isinstance(exc, FuturesTimeoutError)
                    else type(exc).__name__)
            raise _PartialPoolFailure(
                done=done, failed_index=i,
                cause=f"{kind}: {exc}") from exc
    return out


def execute_cells(cells: Sequence[RunCell]) -> list["RunResult"]:
    """Execute ``cells``, returning results in cell order.

    Fan-out, memoization, per-cell timeout and retry budget come from
    the ambient :class:`PerfContext`.  Cache lookups and stores happen
    in the parent process only, so workers stay pure compute and the
    disk tier sees no write races.  A timed-out or pool-killed dispatch
    retries only its unfinished cells, ``max_retries`` times, before
    degrading to the serial path.
    """
    ctx = get_context()
    cache = ctx.cache
    counters = get_metrics()
    counters.add("executor.cells", len(cells))

    results: list[Optional["RunResult"]] = [None] * len(cells)
    pending: list[int] = []
    keys: dict[int, str] = {}
    if cache is not None:
        with counters.timer("cache.lookup"):
            for i, cell in enumerate(cells):
                keys[i] = cell.key()
                hit = cache.get(keys[i])
                if hit is not None:
                    results[i] = hit
                    counters.add("cache.hits")
                else:
                    pending.append(i)
                    counters.add("cache.misses")
    else:
        pending = list(range(len(cells)))

    todo = [cells[i] for i in pending]
    with counters.timer("executor.compute"):
        computed = _dispatch(todo, ctx, counters)
    for i, result in zip(pending, computed):
        results[i] = result
        if cache is not None:
            cache.put(keys[i], result, spec=cells[i].spec)
    tracer = get_tracer()
    if tracer is not None:
        # Parent-side spans in submission order: deterministic for any
        # --jobs value and laid end to end on the perf layer's logical
        # clock, with the cell's *simulated* mean time as the length
        # (wall time is nondeterministic and stays out of the trace).
        computed_set = set(pending)
        for i, result in enumerate(results):
            counters.counter("executor.cells_by_kernel",
                             kernel=result.os_kind).inc()
            tracer.span(
                "perf",
                f"{result.app}/{result.os_kind}/n{result.n_nodes}",
                ts=tracer.advance("perf", result.mean_time),
                duration=result.mean_time, actor="executor",
                cached=i not in computed_set,
                key=keys[i] if i in keys else cells[i].key())
    return results  # type: ignore[return-value]


def _dispatch(cells: Sequence[RunCell], ctx: "PerfContext",
              counters) -> list["RunResult"]:
    jobs, max_retries = ctx.jobs, ctx.max_retries
    if jobs <= 1 or len(cells) <= 1:
        counters.add("executor.serial_cells", len(cells))
        return _run_serial(cells)

    results: dict[int, "RunResult"] = {}
    pending = list(range(len(cells)))
    failures = 0
    while pending and failures <= max_retries:
        batch = [cells[i] for i in pending]
        shared = ctx.pool() if failures == 0 else None
        try:
            if shared is not None:
                out = _run_pool(shared, batch, jobs, ctx.cell_timeout)
            else:
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(batch))
                ) as pool:
                    out = _run_pool(pool, batch, jobs, ctx.cell_timeout)
        except _PartialPoolFailure as failure:
            if shared is not None:
                ctx.mark_pool_broken()
            failures += 1
            if failures == 1:
                counters.add("executor.pool_failures")
            counters.add("executor.cell_retries")
            failed_cell = batch[failure.failed_index]
            # Soak logs must attribute failures to a specific retry
            # attempt, not just the cell key.
            logger.warning(
                "sweep cell %s failed in the worker pool (%s); "
                "%d/%d cells of this batch finished, retrying the rest "
                "(retry attempt %d/%d)",
                failed_cell.key(), failure.cause, len(failure.done),
                len(batch), failures, max_retries)
            for pos, result in failure.done.items():
                results[pending[pos]] = result
            pending = [i for i in pending if i not in results]
            continue
        except _POOL_ERRORS as exc:
            # The pool died without per-cell attribution (fork failed,
            # batch-level pickling error): every pending cell remains.
            if shared is not None:
                ctx.mark_pool_broken()
            failures += 1
            if failures == 1:
                counters.add("executor.pool_failures")
            logger.warning(
                "worker pool failed before any cell could be "
                "attributed (%s: %s); retrying %d cells "
                "(retry attempt %d/%d)", type(exc).__name__, exc,
                len(pending), failures, max_retries)
            continue
        for pos, result in zip(pending, out):
            results[pos] = result
        pending = []

    if pending:
        # Retry budget exhausted: infrastructure is unusable, degrade
        # to serial — the sweep still completes, just slower.
        logger.warning(
            "worker pool unusable after %d attempts; running %d "
            "remaining cells serially", failures, len(pending))
        counters.add("executor.serial_cells", len(pending))
        serial = _run_serial([cells[i] for i in pending])
        for pos, result in zip(pending, serial):
            results[pos] = result
    else:
        counters.add("executor.parallel_cells", len(cells))

    return [results[i] for i in range(len(cells))]
