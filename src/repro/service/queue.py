"""Persistent, transactional job queue over the append-only journal.

State lives under one service directory (``$REPRO_SERVICE_DIR`` or
``~/.local/state/repro-service``)::

    journal.jsonl     every state transition, one canonical line each
    jobs/<id>.json    the frozen submission artifact (canonical JSON)
    claims/<id>.claim the lease: owner, attempt, heartbeat counter
    results/<id>/     published artifacts (atomic directory rename)
    cache/            shared disk tier of the content-addressed RunCache

The job table is a fold over the journal (:meth:`JobQueue.table`),
memoised in process by a :class:`~repro.service.journal.JournalFold`
keyed by the journal's ``(inode, offset)``: each call parses only the
records appended since the last one.  Nothing is indexed on disk, so
there is no secondary index to corrupt.  States follow the
:class:`~repro.runtime.batchsched.BatchScheduler` model extended with
the claim handshake::

    QUEUED -> CLAIMED -> RUNNING -> DONE
                 |          |
                 +----------+--> RETRYING -> (claimable again)
                            |
                            +--> FAILED    (retry budget exhausted,
                                            per RetryPolicy)

**Atomic claims.**  A claim is an ``O_CREAT | O_EXCL`` file create —
the POSIX mutual-exclusion primitive — so exactly one worker wins a
job even when a whole fleet polls the same directory.

**Leases without clocks.**  The claim file carries a heartbeat
*counter* the owner bumps while executing.  An observer declares the
lease dead only after the counter fails to advance across
``lease_ticks`` of its *own* poll cycles (see
:class:`~repro.service.worker.Worker`), and breaking the lease is a
rename of the claim file — again exactly-one-winner.  Every write
goes through :mod:`repro.durable`.  No
wall-clock reads anywhere.

**Crash accounting.**  A broken lease appends a ``retry`` record (or
``fail`` once the :class:`~repro.faults.RetryPolicy` budget is spent)
and counts the lost attempt in the ``service.attempts_lost`` metric —
the queue-level analogue of the batch scheduler's goodput accounting.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Optional

from ..chaos.hooks import get_chaos
from ..durable import atomic_rename, exclusive_create, rewrite_in_place
from ..errors import ClaimConflict, JobNotFoundError, ServiceError
from ..faults.tolerance import RetryPolicy
from ..obs.export import canonical_json
from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from .jobs import JobSpec, job_id_for
from .journal import (CLAIMABLE, TERMINAL, JobState, JobView, Journal,
                      JournalFold)

__all__ = ["JobQueue", "JobState", "JobView", "default_service_dir"]


def default_service_dir() -> pathlib.Path:
    """``$REPRO_SERVICE_DIR`` or ``~/.local/state/repro-service``."""
    env = os.environ.get("REPRO_SERVICE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".local" / "state" / "repro-service"


class JobQueue:
    """The persistent queue: submissions, claims, transitions,
    results — everything under one service directory."""

    def __init__(self, directory: str | os.PathLike | None = None,
                 retry: Optional[RetryPolicy] = None,
                 create: bool = True, durable: bool = True) -> None:
        self.root = pathlib.Path(directory) if directory is not None \
            else default_service_dir()
        #: Retry budget and backoff for failed/lost attempts.  The
        #: service default turns the fault-model's 30 s human-scale
        #: backoff off; ``repro serve --backoff`` restores one.
        self.retry = retry if retry is not None else \
            RetryPolicy(max_retries=3, backoff_base=0.0)
        self.jobs_dir = self.root / "jobs"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.cache_dir = self.root / "cache"
        if create:
            for sub in (self.root, self.jobs_dir, self.claims_dir,
                        self.results_dir, self.cache_dir):
                try:
                    sub.mkdir(parents=True, exist_ok=True)
                except OSError as exc:
                    raise ServiceError(
                        f"cannot create service directory {sub}: "
                        f"{exc}") from exc
        #: ``durable=False`` skips the per-append journal fsync and the
        #: post-publish directory fsync (tests only); service paths keep
        #: the acked-state-survives-kill-9 default.
        self.durable = durable
        self.journal = Journal(self.root / "journal.jsonl",
                               durable=durable)
        #: The in-process memo of the journal fold: :meth:`table`,
        #: :meth:`claim_next`, :meth:`depth`, :meth:`drained`,
        #: :meth:`submit` and fsck all read through it.
        self.fold = JournalFold(self.journal)
        #: Optional :class:`~repro.obs.spool.TelemetrySpool` the owning
        #: worker attaches; ``None`` (the default) keeps every queue
        #: path byte-identical to the telemetry-less service.
        self.telemetry = None

    # -- submission ---------------------------------------------------

    def submit(self, jobspec: JobSpec) -> str:
        """Freeze the submission artifact and enqueue it; returns the
        job id.  The artifact (``jobs/<id>.json``) is written first
        with ``O_EXCL`` — the id is never announced before the bytes
        it names are durable."""
        seq = self.fold.update().submits
        data = (jobspec.canonical_json() + "\n").encode()
        job_id = job_id_for(seq, jobspec)
        while not exclusive_create(self.jobs_dir / f"{job_id}.json", data,
                                   durable=self.durable):
            # Concurrent submitter took this ordinal; next slot.
            seq += 1
            job_id = job_id_for(seq, jobspec)
        cz = get_chaos()
        if cz is not None:
            # Artifact frozen, submit record not yet journaled: a crash
            # here leaves an orphan jobs/<id>.json nobody was told about.
            cz.on("queue.submit")
        self.journal.append({"type": "submit", "job": job_id,
                             "kind": jobspec.kind})
        get_metrics().counter("service.submitted").inc()
        self._trace("submit", job_id)
        return job_id

    def jobspec(self, job_id: str) -> JobSpec:
        """The frozen submission artifact for ``job_id``."""
        try:
            text = (self.jobs_dir / f"{job_id}.json").read_text()
        except OSError:
            raise JobNotFoundError(
                f"no submission artifact for job {job_id!r} "
                f"under {self.root}") from None
        return JobSpec.from_dict(json.loads(text))

    # -- the folded table ---------------------------------------------

    def table(self) -> dict[str, JobView]:
        """The current job table (job id -> :class:`JobView`), in
        first-record order.  The views are copies: changing one never
        reaches the memo."""
        return {job_id: view.copy()
                for job_id, view in self.fold.update().views.items()}

    def job(self, job_id: str) -> JobView:
        view = self.fold.update().views.get(job_id)
        if view is None:
            raise JobNotFoundError(f"unknown job {job_id!r} "
                                   f"under {self.root}")
        return view.copy()

    def depth(self) -> int:
        """Claimable jobs right now (also published as the
        ``service.queue_depth`` gauge by polling workers)."""
        return sum(1 for v in self.fold.update().views.values()
                   if v.state in CLAIMABLE)

    def drained(self) -> bool:
        """Every submitted job is terminal and no claim is live."""
        if any(v.state not in TERMINAL
               for v in self.fold.update().views.values()):
            return False
        return not self.active_claims()

    # -- claims -------------------------------------------------------

    def _claim_path(self, job_id: str) -> pathlib.Path:
        return self.claims_dir / f"{job_id}.claim"

    def claim_next(self, worker_id: str
                   ) -> Optional[tuple[str, JobSpec, int]]:
        """Atomically claim the oldest claimable job.

        Returns ``(job_id, jobspec, attempt)`` or ``None`` when
        nothing is claimable.  The ``O_EXCL`` create of the claim file
        is the lock; losing the race on one job just moves on to the
        next.  Job ids embed the submission ordinal, so "oldest first"
        is a plain sort — identical from every worker.
        """
        views = self.fold.update().views
        for job_id in sorted(views):
            view = views[job_id]
            if view.state not in CLAIMABLE:
                continue
            attempt = view.attempts
            payload = canonical_json({"attempt": attempt, "heartbeat": 0,
                                      "worker": worker_id})
            if not exclusive_create(self._claim_path(job_id),
                                    payload.encode()):
                continue
            cz = get_chaos()
            if cz is not None:
                # Claim file created, claim record not yet journaled: a
                # crash here leaves an unjournaled claim blocking the
                # (still QUEUED) job until fsck or the reaper clears it.
                cz.on("queue.claim")
            self.journal.append({"type": "claim", "job": job_id,
                                 "worker": worker_id, "attempt": attempt})
            get_metrics().counter("service.claims").inc()
            self._trace("claim", job_id, worker_id)
            return job_id, self.jobspec(job_id), attempt
        return None

    def mark_running(self, job_id: str, worker_id: str,
                     attempt: int) -> None:
        self.journal.append({"type": "run", "job": job_id,
                             "worker": worker_id, "attempt": attempt})
        self._trace("run", job_id, worker_id)

    def heartbeat(self, job_id: str, worker_id: str) -> int:
        """Bump the claim's heartbeat counter; returns the new value.

        Raises :class:`~repro.errors.ClaimConflict` when the claim is
        gone or re-owned — the lease was broken and this worker must
        discard its attempt.  The claim is rewritten in place
        (:func:`~repro.durable.rewrite_in_place`), never re-created, so
        a racing lease break always wins.

        Only an attempt's first bump (0 -> 1, which the worker makes
        synchronously before it starts executing) is the
        ``queue.lease_bump`` crash point.  Later bumps come from the
        heartbeat thread on a wall-clock interval, and a chaos
        schedule that counted them would depend on how long a job
        happened to run.
        """
        beat = 0

        def bump(raw: bytes) -> "tuple[bytes, Optional[str]]":
            nonlocal beat
            try:
                payload = json.loads(raw.decode("utf-8"))
            except ValueError:
                payload = None
            if not isinstance(payload, dict) \
                    or payload.get("worker") != worker_id:
                raise ClaimConflict(
                    f"lease on {job_id} lost by {worker_id}: claim "
                    "re-owned")
            previous = int(payload.get("heartbeat", 0))
            beat = payload["heartbeat"] = previous + 1
            # The claim is truncated and mid-rewrite at this site: a
            # torn write leaves a claim payload no reader can parse.
            site = "queue.lease_bump" if previous == 0 else None
            return canonical_json(payload).encode(), site

        try:
            rewrite_in_place(self._claim_path(job_id), bump)
        except FileNotFoundError:
            raise ClaimConflict(
                f"lease on {job_id} lost by {worker_id}: claim file "
                "gone (broken by another worker)") from None
        get_metrics().counter("service.heartbeats").inc()
        return beat

    def read_claim(self, job_id: str) -> Optional[dict]:
        """The claim payload, or None when absent/unreadable (a torn
        heartbeat rewrite reads as None for one observation — the
        counter has still advanced by the next read)."""
        try:
            raw = self._claim_path(job_id).read_text()
        except OSError:
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def active_claims(self) -> dict[str, dict]:
        """job id -> claim payload for every live claim file, in
        sorted order (unreadable payloads map to ``{}``)."""
        out: dict[str, dict] = {}
        for path in sorted(self.claims_dir.glob("*.claim")):
            job_id = path.name[:-len(".claim")]
            out[job_id] = self.read_claim(job_id) or {}
        return out

    def _drop_claim(self, job_id: str) -> None:
        try:
            os.unlink(self._claim_path(job_id))
        except OSError:
            pass

    def break_lease(self, job_id: str, breaker: str = "",
                    reason: str = "lease expired") -> bool:
        """Steal a dead owner's claim; returns True when this caller
        won.  The rename to a per-attempt stale name is the race
        arbiter: exactly one breaker succeeds, everyone else sees the
        path already gone."""
        payload = self.read_claim(job_id) or {}
        attempt = int(payload.get("attempt", 0))
        worker = str(payload.get("worker", ""))
        stale = self.claims_dir / f"{job_id}.stale{attempt}"
        if not atomic_rename(self._claim_path(job_id), stale):
            return False
        cz = get_chaos()
        if cz is not None:
            # Claim file stolen, retry/fail record not yet journaled: a
            # crash here strands the job CLAIMED/RUNNING with no lease
            # left for anyone to observe — only fsck can re-queue it.
            cz.on("queue.lease_break")
        get_metrics().counter("service.leases_broken").inc()
        get_metrics().counter("service.attempts_lost").inc()
        self._trace("lease_break", job_id, breaker)
        self._retry_or_fail(job_id, worker, attempt,
                            f"{reason} (worker {worker or '?'}, "
                            f"attempt {attempt})")
        return True

    # -- transitions out of RUNNING -----------------------------------

    def complete(self, job_id: str, worker_id: str, attempt: int) -> None:
        """Record success and release the claim."""
        self.journal.append({"type": "done", "job": job_id,
                             "worker": worker_id, "attempt": attempt})
        cz = get_chaos()
        if cz is not None:
            # Done journaled, claim not yet dropped: a crash here
            # leaves a stale claim file on a terminal job.
            cz.on("queue.complete")
        self._drop_claim(job_id)
        get_metrics().counter("service.jobs_done").inc()
        self._trace("done", job_id, worker_id)

    def fail_attempt(self, job_id: str, worker_id: str, attempt: int,
                     error: str) -> None:
        """Record an attempt failure; the retry budget decides whether
        the job re-queues (RETRYING) or dies (FAILED)."""
        self._drop_claim(job_id)
        self._trace("attempt_failed", job_id, worker_id)
        self._retry_or_fail(job_id, worker_id, attempt, error)

    def requeue(self, job_id: str, reason: str) -> None:
        """Re-queue a stranded non-terminal job (fsck's repair verb).

        Charges the lost attempt against the retry budget exactly like
        a lease break, so a job that keeps getting stranded still dies
        at the policy's limit instead of looping forever.
        """
        view = self.job(job_id)
        if view.state in TERMINAL:
            raise ServiceError(
                f"job {job_id} is {view.state.value}; nothing to re-queue")
        attempt = max(0, view.attempts - 1)
        get_metrics().counter("service.attempts_lost").inc()
        self._trace("requeue", job_id)
        self._retry_or_fail(job_id, view.worker, attempt, reason)

    def _retry_or_fail(self, job_id: str, worker_id: str, attempt: int,
                       error: str) -> None:
        failures = attempt + 1
        if self.retry.exhausted(failures):
            self.journal.append({"type": "fail", "job": job_id,
                                 "worker": worker_id, "attempt": attempt,
                                 "error": error})
            get_metrics().counter("service.jobs_failed").inc()
            self._trace("fail", job_id, worker_id)
        else:
            self.journal.append({"type": "retry", "job": job_id,
                                 "worker": worker_id, "attempt": attempt,
                                 "error": error})
            get_metrics().counter("service.retries").inc()
            self._trace("retry", job_id, worker_id)

    # -- results ------------------------------------------------------

    def result_dir(self, job_id: str) -> pathlib.Path:
        """Where ``job_id``'s published artifacts live (exists only
        once the job is DONE — publication is an atomic rename)."""
        return self.results_dir / job_id

    def result_files(self, job_id: str) -> list[pathlib.Path]:
        """The published artifact files, sorted; raises
        :class:`~repro.errors.ServiceError` unless the job is DONE."""
        view = self.job(job_id)
        if view.state is not JobState.DONE:
            raise ServiceError(
                f"job {job_id} is {view.state.value}, not done; "
                "no artifacts to fetch"
                + (f" (last error: {view.error})" if view.error else ""))
        directory = self.result_dir(job_id)
        if not directory.is_dir():
            raise ServiceError(
                f"job {job_id} is done but its result directory "
                f"{directory} is missing")
        return sorted(p for p in directory.rglob("*") if p.is_file())

    # -- plumbing -----------------------------------------------------

    def _trace(self, name: str, job_id: str, worker_id: str = "") -> None:
        tracer = get_tracer()
        if tracer is not None:
            tracer.event("service", name, ts=tracer.advance("service"),
                         actor=worker_id or "queue", job=job_id)
        spool = self.telemetry
        if spool is not None:
            spool.event(name, job=job_id, worker=worker_id)
