"""The worker: claim → execute through the shared engine → publish.

One worker is one poll loop over the :class:`~repro.service.queue.
JobQueue`.  Everything that *runs* goes through the same
:class:`~repro.engine.ExecutionEngine` the one-shot CLI uses, with the
queue's ``cache/`` directory as the shared content-addressed result
tier — so a cell computed by any worker (or by a previous ``repro
experiment``) is a cache replay for every other, and artifacts are
byte-identical regardless of which worker, or how many, produced them.

Crash tolerance, clock-free:

* While executing, a daemon thread bumps the claim file's heartbeat
  *counter* (:meth:`JobQueue.heartbeat`).  Under chaos the first bump
  is made synchronously right after the job is marked running, so the
  ``queue.lease_bump`` crash point does not depend on thread timing.
* While idle, a worker observes other claims; one whose ``(attempt,
  heartbeat)`` signature fails to change across ``lease_ticks`` of
  its own poll cycles is declared dead and its lease broken
  (:meth:`JobQueue.break_lease` — exactly one breaker wins).
* A worker that loses its own lease mid-run (it was presumed dead but
  was merely slow) discards the attempt without publishing; the
  re-claimant owns the job.  Publication itself is an atomic directory
  rename, and results are deterministic, so even a double execution
  converges on identical bytes.

Lost work is accounted in the ``service.attempts_lost`` /
``service.work_discarded`` counters — the queue-level analogue of the
batch scheduler's goodput metrics.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import threading
import time
from typing import Optional

from ..chaos.hooks import get_chaos
from ..durable import atomic_rename
from ..engine import ExecutionEngine
from ..errors import ClaimConflict, ReproError
from ..obs.export import canonical_json
from ..obs.metrics import get_metrics
from ..obs.spool import TelemetrySpool, spool_dir
from ..obs.tracer import tracing
from ..perf.cache import RunCache, result_to_dict
from .jobs import JobSpec
from .queue import TERMINAL, JobQueue

__all__ = ["Worker"]


class Worker:
    """One claim-execute-publish loop against a job queue.

    ``drain=True`` exits once every job is terminal and no claim is
    live (the batch shape: ``repro serve --drain``); otherwise the
    loop polls forever (the service shape).  ``max_polls`` bounds idle
    polls for tests.
    """

    def __init__(self, queue: JobQueue, worker_id: str = "",
                 poll_interval: float = 0.1, lease_ticks: int = 50,
                 drain: bool = False, max_polls: Optional[int] = None,
                 use_cache: bool = True, telemetry: bool = False) -> None:
        self.queue = queue
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.poll_interval = max(0.0, float(poll_interval))
        self.lease_ticks = max(1, int(lease_ticks))
        self.drain = drain
        self.max_polls = max_polls
        self._cache = RunCache(queue.cache_dir, durable=queue.durable) \
            if use_cache else None
        #: The flight recorder (``--telemetry``): lifecycle events,
        #: trace segments and counter snapshots spooled durably to
        #: ``telemetry/<worker-id>.jsonl``.  Off by default — the
        #: telemetry-less paths stay byte-identical.
        self.spool = TelemetrySpool(
            spool_dir(queue.root) / f"{self.worker_id}.jsonl",
            source=self.worker_id,
            durable=queue.durable) if telemetry else None
        #: job id -> [(attempt, heartbeat) signature, stalled polls]
        self._observations: dict[str, list] = {}
        #: Run summary (also the :meth:`run` return value).
        self.executed = 0
        self.failed = 0
        self.leases_broken = 0
        self.discarded = 0

    # -- the loop -----------------------------------------------------

    def run(self) -> dict:
        """Poll until drained (``drain=True``), ``max_polls`` idle
        polls elapse, or forever.  Returns the summary dict.

        With telemetry on, the queue's lifecycle transitions spool
        through this worker while the loop runs, and a clean exit
        appends a final counter snapshot plus ``worker.exit``.  A
        crash mid-loop appends nothing further — the spool then reads
        exactly like the flight recorder of a process that died, which
        is the point.
        """
        if self.spool is not None:
            self.queue.telemetry = self.spool
            self.spool.event("worker.start", worker=self.worker_id,
                             lease_ticks=self.lease_ticks)
        try:
            summary = self._poll_loop()
        finally:
            if self.queue.telemetry is self.spool:
                self.queue.telemetry = None
        if self.spool is not None:
            self.spool.metrics({"depth": self.queue.depth(),
                                **{k: v for k, v in summary.items()
                                   if k != "worker"}})
            self.spool.event("worker.exit", worker=self.worker_id)
        return summary

    def _poll_loop(self) -> dict:
        idle_polls = 0
        while True:
            claimed = self.queue.claim_next(self.worker_id)
            if claimed is not None:
                job_id, jobspec, attempt = claimed
                self._backoff(attempt)
                self._execute(job_id, jobspec, attempt)
                idle_polls = 0
                continue
            get_metrics().gauge("service.queue_depth").set(
                self.queue.depth())
            if self._reap():
                continue
            if self.drain and self.queue.drained():
                break
            idle_polls += 1
            if self.max_polls is not None and idle_polls >= self.max_polls:
                break
            time.sleep(self.poll_interval)
        return self.summary()

    def summary(self) -> dict:
        return {
            "worker": self.worker_id,
            "executed": self.executed,
            "failed": self.failed,
            "leases_broken": self.leases_broken,
            "discarded": self.discarded,
        }

    def _backoff(self, attempt: int) -> None:
        """Honour the queue's RetryPolicy backoff before re-running a
        previously failed attempt (no-op at the 0-base default)."""
        if attempt > 0:
            delay = self.queue.retry.delay(attempt)
            if delay > 0:
                time.sleep(delay)

    # -- execution ----------------------------------------------------

    def _execute(self, job_id: str, jobspec: JobSpec,
                 attempt: int) -> None:
        self.queue.mark_running(job_id, self.worker_id, attempt)
        # The attempt's first beat is synchronous, so the crash point
        # it carries (queue.lease_bump) fires at the same place in
        # every run of a chaos schedule.
        try:
            self.queue.heartbeat(job_id, self.worker_id)
        except ClaimConflict:
            self._account_lost()
            return
        stop = threading.Event()
        lost = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(job_id, stop, lost),
            name=f"heartbeat-{self.worker_id}", daemon=True)
        beat.start()
        workdir = self.queue.results_dir / \
            f"{job_id}.tmp-{self.worker_id}-{attempt}"
        try:
            try:
                self._traced_run(job_id, jobspec, workdir)
            except ReproError as exc:
                stop.set()
                beat.join()
                shutil.rmtree(workdir, ignore_errors=True)
                if lost.is_set():
                    self._account_lost()
                    return
                self.failed += 1
                self.queue.fail_attempt(
                    job_id, self.worker_id, attempt,
                    error=f"{type(exc).__name__}: {exc}")
                return
            stop.set()
            beat.join()
            if lost.is_set():
                # Presumed dead, actually slow: the re-claimant owns
                # the job now.  Discard rather than double-publish.
                shutil.rmtree(workdir, ignore_errors=True)
                self._account_lost()
                return
            self._publish(job_id, workdir)
            self.executed += 1
            self.queue.complete(job_id, self.worker_id, attempt)
        finally:
            # Every exit path — engine failure, publish loser discard,
            # KeyboardInterrupt, injected crash — stops and joins the
            # heartbeat daemon: no thread outlives run().  (A real
            # kill -9 needs no join; in-process crashes must not leak
            # a beater that keeps a dead attempt's lease alive.)
            stop.set()
            beat.join()

    def _heartbeat_loop(self, job_id: str, stop: threading.Event,
                        lost: threading.Event) -> None:
        interval = self.poll_interval / 2 if self.poll_interval else 0.01
        while not stop.wait(interval):
            try:
                self.queue.heartbeat(job_id, self.worker_id)
            except ClaimConflict:
                lost.set()
                return

    def _traced_run(self, job_id: str, jobspec: JobSpec,
                    workdir: pathlib.Path) -> None:
        """Execute the job; with telemetry on, under a job-scoped
        tracer whose per-layer summary is spooled as a trace segment
        (results are identical either way — the tracer only observes)."""
        if self.spool is None:
            self._run_jobspec(jobspec, workdir)
            return
        with tracing() as tracer:
            self._run_jobspec(jobspec, workdir)
        self.spool.segment(job=job_id, layers=tracer.layer_counts(),
                           events=len(tracer), dropped=tracer.dropped)

    def _run_jobspec(self, jobspec: JobSpec,
                     workdir: pathlib.Path) -> None:
        """Execute the submission into ``workdir`` through the shared
        engine.  Experiment jobs produce exactly the ``repro export``
        artifact set; run/sweep jobs produce ``results.json`` keyed by
        the frozen specs."""
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        engine = ExecutionEngine.from_options(cache=self._cache)
        if jobspec.kind == "experiment":
            engine.export_experiments(workdir, ids=[jobspec.experiment],
                                      fast=jobspec.fast, seed=jobspec.seed)
            return
        results = engine.run_specs(jobspec.specs)
        payload = {
            "jobspec": jobspec.to_dict(),
            "results": [result_to_dict(r) for r in results],
        }
        (workdir / "results.json").write_text(
            canonical_json(payload) + "\n")

    def _publish(self, job_id: str, workdir: pathlib.Path) -> None:
        """Atomically rename the work directory into place.  A loser
        of a double execution (the target already exists) discards its
        copy — determinism makes both byte-identical anyway."""
        final = self.queue.result_dir(job_id)
        cz = get_chaos()
        if cz is not None:
            # Dying here leaves a stray ``*.tmp-*`` workdir and a
            # still-CLAIMED job: the lease reaper re-queues it, fsck
            # quarantines the debris.
            cz.on("worker.publish.pre_rename")
        if not atomic_rename(workdir, final, durable=self.queue.durable):
            shutil.rmtree(workdir, ignore_errors=True)
            return
        if cz is not None:
            # Dying here leaves a published result whose "done" record
            # never hit the journal — the one crash window fsck can
            # repair by appending the record (the rename was atomic,
            # so the result directory is complete by construction).
            cz.on("worker.publish.post_rename")

    def _account_lost(self) -> None:
        self.discarded += 1
        get_metrics().counter("service.work_discarded").inc()

    # -- lease reaping ------------------------------------------------

    def _reap(self) -> bool:
        """Observe other workers' claims; break any lease whose
        heartbeat signature has not advanced for ``lease_ticks`` of
        our own polls.  Returns True when a lease was broken (the
        caller re-polls immediately — the job is claimable now)."""
        views = self.queue.fold.update().views
        claims = self.queue.active_claims()
        broke = False
        for job_id in sorted(claims):
            view = views.get(job_id)
            if view is not None and view.state in TERMINAL:
                self._observations.pop(job_id, None)
                continue
            payload = claims[job_id]
            if payload.get("worker") == self.worker_id:
                # Never reap our own claim (only live between claim
                # and completion inside this same thread anyway).
                continue
            signature = (payload.get("attempt"), payload.get("heartbeat"))
            seen = self._observations.get(job_id)
            if seen is None or seen[0] != signature:
                self._observations[job_id] = [signature, 0]
                continue
            seen[1] += 1
            if seen[1] >= self.lease_ticks:
                self._observations.pop(job_id, None)
                if self.queue.break_lease(job_id, breaker=self.worker_id):
                    self.leases_broken += 1
                    broke = True
        for job_id in [j for j in sorted(self._observations)
                       if j not in claims]:
            self._observations.pop(job_id, None)
        return broke
